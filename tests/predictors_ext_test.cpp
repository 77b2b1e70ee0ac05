/**
 * @file
 * Tests for the extended examples library: the loop predictor, the
 * de-aliasing designs (Agree, Bi-Mode, YAGS), the branch filter and the
 * TAGE-SC-L composite.
 */
#include "mbp/predictors/all.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mbp/sbbt/writer.hpp"
#include "mbp/sim/simulator.hpp"
#include "mbp/tracegen/generator.hpp"
#include "test_tmp.hpp"

using namespace mbp;
using namespace mbp::pred;

namespace
{

double
mpkiOn(Predictor &p, const std::vector<tracegen::TraceEvent> &events)
{
    std::uint64_t instr = 0, misp = 0;
    for (const auto &ev : events) {
        instr += ev.instr_gap + 1;
        if (ev.branch.isConditional()) {
            if (p.predict(ev.branch.ip()) != ev.branch.isTaken())
                ++misp;
            p.train(ev.branch);
        }
        p.track(ev.branch);
    }
    return double(misp) / (double(instr) / 1000.0);
}

std::uint64_t
mispredictionsOnSequence(Predictor &p, const std::vector<bool> &outcomes,
                         std::uint64_t ip = 0x4000, std::uint64_t skip = 0)
{
    std::uint64_t misp = 0;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        bool guess = p.predict(ip);
        if (i >= skip && guess != outcomes[i])
            ++misp;
        Branch b{ip, ip + 64, OpCode::condJump(), outcomes[i]};
        p.train(b);
        p.track(b);
    }
    return misp;
}

/** Loop-tail outcome stream: taken (trips-1) times, then not-taken. */
std::vector<bool>
loopTail(int trips, int executions)
{
    std::vector<bool> outcomes;
    for (int e = 0; e < executions; ++e) {
        for (int i = 0; i < trips - 1; ++i)
            outcomes.push_back(true);
        outcomes.push_back(false);
    }
    return outcomes;
}

const std::vector<tracegen::TraceEvent> &
sharedWorkload()
{
    static const std::vector<tracegen::TraceEvent> events = [] {
        tracegen::WorkloadSpec spec;
        spec.seed = 42;
        spec.num_instr = 3'000'000;
        return tracegen::generateAll(spec);
    }();
    return events;
}

} // namespace

// ---------------------------------------------------------------------
// Loop predictor
// ---------------------------------------------------------------------

TEST(Loop, LearnsLongFixedTripCountExactly)
{
    // Trip count 50 is beyond any counter or short-history scheme.
    LoopPredictor<> loop;
    auto outcomes = loopTail(50, 100);
    // After two exits the trip count is locked: at most a handful of
    // mispredictions after warm-up.
    std::uint64_t misp =
        mispredictionsOnSequence(loop, outcomes, 0x4000, 3 * 50);
    EXPECT_LE(misp, 2u);
}

TEST(Loop, GshareCannotLearnThatLoop)
{
    Gshare<12, 14> gshare;
    auto outcomes = loopTail(50, 100);
    std::uint64_t misp =
        mispredictionsOnSequence(gshare, outcomes, 0x4000, 3 * 50);
    EXPECT_GT(misp, 50u) << "history is too short for trip count 50";
}

TEST(Loop, StaysUnconfidentOnIrregularTrips)
{
    LoopPredictor<> loop;
    std::vector<bool> outcomes;
    Lfsr rng(3);
    for (int e = 0; e < 200; ++e) {
        int trips = 2 + int(rng.next() % 20);
        for (int i = 0; i < trips - 1; ++i)
            outcomes.push_back(true);
        outcomes.push_back(false);
    }
    mispredictionsOnSequence(loop, outcomes);
    EXPECT_FALSE(loop.isConfident(0x4000))
        << "irregular loops must not lock";
}

TEST(Loop, OverrideImprovesGshareOnLoopHeavyCode)
{
    const auto &events = sharedWorkload();
    Gshare<15, 17> plain;
    LoopOverride with_loop(std::make_unique<Gshare<15, 17>>());
    double mpki_plain = mpkiOn(plain, events);
    double mpki_loop = mpkiOn(with_loop, events);
    EXPECT_LT(mpki_loop, mpki_plain)
        << "the synthetic programs are loop-rich";
    EXPECT_GT(with_loop.execution_stats()
                  .find("loop_predictions")
                  ->asUint(),
              0u);
}

// ---------------------------------------------------------------------
// De-aliasing designs
// ---------------------------------------------------------------------

template <typename P>
class DealiasedPredictor : public testing::Test
{};

using Dealiased = testing::Types<Agree<15, 15>, BiMode<15, 14>,
                                 Yags<13, 13>>;
TYPED_TEST_SUITE(DealiasedPredictor, Dealiased);

TYPED_TEST(DealiasedPredictor, BeatsSameBudgetGshare)
{
    // Each design's banks sum to roughly the cost of Gshare<15,15>.
    const auto &events = sharedWorkload();
    Gshare<15, 15> gshare;
    TypeParam dealiased;
    double mpki_gshare = mpkiOn(gshare, events);
    double mpki_dealiased = mpkiOn(dealiased, events);
    EXPECT_LT(mpki_dealiased, mpki_gshare);
}

TYPED_TEST(DealiasedPredictor, LearnsBiasAndAlternation)
{
    TypeParam p;
    std::vector<bool> biased(400, true);
    EXPECT_LE(mispredictionsOnSequence(p, biased, 0x4000, 50), 4u);
    TypeParam q;
    std::vector<bool> alternating;
    for (int i = 0; i < 600; ++i)
        alternating.push_back(i % 2 == 0);
    EXPECT_LE(mispredictionsOnSequence(q, alternating, 0x8000, 200), 10u);
}

TYPED_TEST(DealiasedPredictor, MetadataHasName)
{
    TypeParam p;
    ASSERT_NE(p.metadata_stats().find("name"), nullptr);
}

TEST(Agree, OppositeBiasAliasesDoNotDestroyEachOther)
{
    // Two branches with opposite constant outcomes hammering a small
    // agree table: both should stay near-perfect, because both map to
    // "agrees with bias".
    Agree<10, 8, 10> agree;
    std::uint64_t misp = 0;
    for (int i = 0; i < 4000; ++i) {
        std::uint64_t ip = (i % 2 == 0) ? 0x4000 : 0x8000;
        bool outcome = i % 2 == 0; // branch A always taken, B never
        if (agree.predict(ip) != outcome && i > 400)
            ++misp;
        Branch b{ip, ip + 64, OpCode::condJump(), outcome};
        agree.train(b);
        agree.track(b);
    }
    EXPECT_LE(misp, 40u);
}

// ---------------------------------------------------------------------
// Branch filter
// ---------------------------------------------------------------------

namespace
{

class CountingMain : public Predictor
{
  public:
    bool
    predict(std::uint64_t) override
    {
        ++predicts;
        return true;
    }
    void train(const Branch &) override { ++trains; }
    void track(const Branch &) override { ++tracks; }
    int predicts = 0, trains = 0, tracks = 0;
};

} // namespace

TEST(Filter, ConstantBranchGetsFilteredAfterMinRun)
{
    auto main = std::make_unique<CountingMain>();
    auto *main_raw = main.get();
    BiasFilter<10, 16> filter(std::move(main));
    std::vector<bool> outcomes(100, true);
    std::uint64_t misp = mispredictionsOnSequence(filter, outcomes);
    EXPECT_EQ(misp, 0u);
    // After 16 same-direction outcomes the main predictor stops seeing
    // the branch.
    EXPECT_LE(main_raw->trains, 17);
    EXPECT_GT(filter.execution_stats()
                  .find("filtered_predictions")
                  ->asUint(),
              0u);
    EXPECT_EQ(filter.execution_stats().find("filtered_sites")->asUint(),
              1u);
}

TEST(Filter, OneDeviationDisqualifiesForever)
{
    auto main = std::make_unique<CountingMain>();
    auto *main_raw = main.get();
    BiasFilter<10, 16> filter(std::move(main));
    std::vector<bool> outcomes(50, true);
    outcomes.push_back(false); // the deviation
    outcomes.insert(outcomes.end(), 100, true);
    mispredictionsOnSequence(filter, outcomes);
    // After the deviation every execution reaches the main predictor.
    EXPECT_GE(main_raw->trains, 100);
    EXPECT_EQ(filter.execution_stats().find("filtered_sites")->asUint(),
              0u);
}

TEST(Filter, SkipTrackingKeepsScenarioCallsAway)
{
    auto main = std::make_unique<CountingMain>();
    auto *main_raw = main.get();
    BiasFilter<10, 8, true> filter(std::move(main));
    std::vector<bool> outcomes(100, true);
    mispredictionsOnSequence(filter, outcomes);
    EXPECT_LT(main_raw->tracks, 20)
        << "filtered branches skip track() in SkipTracking mode";
}

TEST(Filter, HarmlessOnFullWorkload)
{
    const auto &events = sharedWorkload();
    Gshare<15, 17> plain;
    BiasFilter<14, 64> filtered(std::make_unique<Gshare<15, 17>>());
    double mpki_plain = mpkiOn(plain, events);
    double mpki_filtered = mpkiOn(filtered, events);
    EXPECT_LT(mpki_filtered, mpki_plain * 1.03)
        << "filtering never-deviating branches must not hurt";
}

// ---------------------------------------------------------------------
// TAGE-SC-L composite
// ---------------------------------------------------------------------

TEST(TageSclPred, AtLeastAsGoodAsPlainTage)
{
    const auto &events = sharedWorkload();
    Tage tage;
    TageScl scl;
    double mpki_tage = mpkiOn(tage, events);
    double mpki_scl = mpkiOn(scl, events);
    EXPECT_LT(mpki_scl, mpki_tage * 1.02);
    json_t stats = scl.execution_stats();
    EXPECT_GT(stats.find("loop_used")->asUint(), 0u);
}

TEST(TageSclPred, LoopComponentWinsOnPureLoops)
{
    // A trip-97 loop: even TAGE's long history has trouble; the loop
    // component nails it.
    TageScl scl;
    auto outcomes = loopTail(97, 200);
    std::uint64_t misp =
        mispredictionsOnSequence(scl, outcomes, 0x4000, 5 * 97);
    EXPECT_LE(misp, 20u);
}

TEST(TageSclPred, MetadataDescribesComposition)
{
    TageScl scl;
    json_t md = scl.metadata_stats();
    EXPECT_EQ(md.find("name")->asString(), "MBPlib TAGE-SC-L (lite)");
    ASSERT_NE(md.find("tage"), nullptr);
    ASSERT_NE(md.find("loop"), nullptr);
}

TEST(TageSclPred, Deterministic)
{
    const auto &events = sharedWorkload();
    TageScl a, b;
    EXPECT_DOUBLE_EQ(mpkiOn(a, events), mpkiOn(b, events));
}

// ---------------------------------------------------------------------
// Roster registry
// ---------------------------------------------------------------------

#include "mbp/predictors/roster.hpp"

TEST(Roster, EveryNameConstructsAndPredicts)
{
    auto names = rosterNames();
    EXPECT_GE(names.size(), 14u);
    for (const std::string &name : names) {
        auto p = makeByName(name);
        ASSERT_NE(p, nullptr) << name;
        Branch b{0x4000, 0x5000, OpCode::condJump(), true};
        p->predict(b.ip());
        p->train(b);
        p->track(b);
        ASSERT_NE(p->metadata_stats().find("name"), nullptr) << name;
    }
}

TEST(Roster, UnknownNameReturnsNull)
{
    EXPECT_EQ(makeByName("does-not-exist"), nullptr);
    EXPECT_EQ(makeByName(""), nullptr);
}

// ---------------------------------------------------------------------
// Storage accounting
// ---------------------------------------------------------------------

TEST(Storage, EveryRosterPredictorReportsAPlausibleBudget)
{
    for (const std::string &name : rosterNames()) {
        if (name.rfind("static", 0) == 0)
            continue; // the static predictors hold no state
        auto p = makeByName(name);
        ASSERT_NE(p, nullptr) << name;
        std::uint64_t bits = p->storageBits();
        EXPECT_GE(bits, 8u * 1024) << name << " reports " << bits;
        EXPECT_LE(bits, 8u * 1024 * 1024) << name << " reports " << bits;
    }
}

TEST(Storage, KnownValuesAreExact)
{
    // GShare<15,17>: 2^17 two-bit counters + a 15-bit history register.
    Gshare<15, 17> gshare;
    EXPECT_EQ(gshare.storageBits(), (1ull << 17) * 2 + 15);
    // Bimodal<16>: 2^16 two-bit counters.
    Bimodal<16> bimodal;
    EXPECT_EQ(bimodal.storageBits(), (1ull << 16) * 2);
    // Composition sums its parts.
    LoopOverride composed(std::make_unique<Bimodal<16>>());
    LoopPredictor<> loop;
    EXPECT_EQ(composed.storageBits(),
              bimodal.storageBits() + loop.storageBits());
}

TEST(Storage, SimulatorEchoesStorageIntoMetadata)
{
    tracegen::WorkloadSpec spec;
    spec.seed = 3;
    spec.num_instr = 50'000;
    std::string path = mbp::test::tempDir() + "/storage.sbbt";
    {
        sbbt::SbbtWriter writer(path);
        tracegen::TraceGenerator gen(spec);
        tracegen::TraceEvent ev;
        while (gen.next(ev))
            ASSERT_TRUE(writer.append(ev.branch, ev.instr_gap));
        ASSERT_TRUE(writer.close());
    }
    Gshare<15, 17> gshare;
    SimArgs args;
    args.trace_path = path;
    json_t result = simulate(gshare, args);
    ASSERT_NE(result.find("metadata")->find("predictor")->find(
                  "storage_bits"),
              nullptr);
    EXPECT_EQ(result.find("metadata")
                  ->find("predictor")
                  ->find("storage_bits")
                  ->asUint(),
              gshare.storageBits());
    std::remove(path.c_str());
}
