/**
 * @file
 * Conformance coverage for the compile-time contracts
 * (mbp/sim/concepts.hpp): every roster predictor type must satisfy
 * PredictorLike and RosterPredictor, and near-miss shapes must be
 * rejected. Most of this file *is* the test — a contract regression
 * fails the build — and the runtime tests pin the concept-constrained
 * sweep factory helper.
 */
#include <gtest/gtest.h>

#include <memory>

#include "mbp/predictors/agree.hpp"
#include "mbp/predictors/batage.hpp"
#include "mbp/predictors/bimodal.hpp"
#include "mbp/predictors/bimode.hpp"
#include "mbp/predictors/filter.hpp"
#include "mbp/predictors/gshare.hpp"
#include "mbp/predictors/gskew.hpp"
#include "mbp/predictors/loop.hpp"
#include "mbp/predictors/perceptron.hpp"
#include "mbp/predictors/roster.hpp"
#include "mbp/predictors/static_pred.hpp"
#include "mbp/predictors/tage.hpp"
#include "mbp/predictors/tage_scl.hpp"
#include "mbp/predictors/tournament.hpp"
#include "mbp/predictors/two_level.hpp"
#include "mbp/predictors/yags.hpp"
#include "mbp/sim/concepts.hpp"
#include "mbp/sweep/sweep.hpp"

namespace
{

using namespace mbp;
using namespace mbp::pred;

// ---------------------------------------------------------------------------
// PredictorLike / RosterPredictor: the full roster, at the exact
// configurations makeByName instantiates (roster.cpp).

static_assert(RosterPredictor<AlwaysTaken>);
static_assert(RosterPredictor<AlwaysNotTaken>);
static_assert(RosterPredictor<Bimodal<16>>);
static_assert(RosterPredictor<GAs<13, 4>>);
static_assert(RosterPredictor<Gshare<15, 17>>);
static_assert(RosterPredictor<Agree<15, 16>>);
static_assert(RosterPredictor<BiMode<15, 15>>);
static_assert(RosterPredictor<Yags<13, 13>>);
static_assert(RosterPredictor<TournamentPred>);
static_assert(RosterPredictor<Gskew2bc<17, 16>>);
static_assert(RosterPredictor<HashedPerceptron<8, 12, 128>>);
static_assert(RosterPredictor<LoopOverride>);
static_assert(RosterPredictor<BiasFilter<14, 64, true>>);
static_assert(RosterPredictor<Tage>);
static_assert(RosterPredictor<Batage>);
static_assert(RosterPredictor<TageScl>);

// The two-level taxonomy beyond the roster's GAs member.
static_assert(RosterPredictor<GAg<12>>);
static_assert(RosterPredictor<PAg<10, 6>>);
static_assert(RosterPredictor<PAs<10, 6, 4>>);

// The runtime interface itself is PredictorLike (through its virtuals)
// but NOT a RosterPredictor: it is abstract, so a sweep factory cannot
// be constrained to it by mistake.
static_assert(PredictorLike<Predictor>);
static_assert(!RosterPredictor<Predictor>);
static_assert(!PredictorLike<int>);

/** predict() returning non-bool must not satisfy the contract. */
struct WrongPredictReturn
{
    int predict(std::uint64_t);
    void train(const Branch &);
    void track(const Branch &);
    json_t metadata_stats() const;
    json_t execution_stats() const;
    std::uint64_t storageBits() const;
    std::optional<ComponentInfo> storage_components() const;
};
static_assert(!PredictorLike<WrongPredictReturn>);

/** A pre-introspection predictor shape (no storage_components()). */
struct NoStorageComponents
{
    bool predict(std::uint64_t);
    void train(const Branch &);
    void track(const Branch &);
    json_t metadata_stats() const;
    json_t execution_stats() const;
    std::uint64_t storageBits() const;
};
static_assert(!PredictorLike<NoStorageComponents>);

// ---------------------------------------------------------------------------
// PredictorFactory

static_assert(PredictorFactory<std::unique_ptr<Predictor> (*)()>);
static_assert(
    PredictorFactory<decltype([] { return std::make_unique<Tage>(); })>);
static_assert(!PredictorFactory<int (*)()>);
static_assert(!PredictorFactory<void (*)()>);

// ---------------------------------------------------------------------------
// makeSpec: the concept-constrained factory helper.

TEST(MakeSpec, ProducesFreshInstancesPerCall)
{
    sweep::PredictorSpec spec =
        sweep::makeSpec<Gshare<15, 17>>("gshare-spec");
    EXPECT_EQ(spec.name, "gshare-spec");
    ASSERT_TRUE(spec.make != nullptr);
    std::unique_ptr<Predictor> a = spec.make();
    std::unique_ptr<Predictor> b = spec.make();
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_NE(a.get(), b.get());
    using RosterGshare = Gshare<15, 17>;
    EXPECT_EQ(a->storageBits(), RosterGshare().storageBits());
    // The fused factory builds the same configuration, fresh per call.
    ASSERT_TRUE(spec.make_kernel != nullptr);
    std::unique_ptr<BlockKernel> ka = spec.make_kernel();
    std::unique_ptr<BlockKernel> kb = spec.make_kernel();
    ASSERT_NE(ka, nullptr);
    ASSERT_NE(kb, nullptr);
    EXPECT_NE(ka.get(), kb.get());
    EXPECT_EQ(ka->storageBits(), RosterGshare().storageBits());
}

TEST(MakeSpec, ForwardsConstructorArgumentsByValue)
{
    sweep::PredictorSpec spec =
        sweep::makeSpec<StaticPred<true>>("taken");
    std::unique_ptr<Predictor> taken = spec.make();
    ASSERT_NE(taken, nullptr);
    EXPECT_TRUE(taken->predict(0x1234));
}

} // namespace
