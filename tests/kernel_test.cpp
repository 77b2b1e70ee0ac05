/**
 * @file
 * Unit tests for the fused simulation kernels (mbp/sim/kernels.hpp):
 * block-boundary edge cases of the pre-partitioned loops (warmup ending
 * mid-block, instruction limit mid-block and at an exact block boundary,
 * traces shorter than one block), the KernelFusedStep / KernelSiteFold
 * equivalence contracts, and the variadic simulateManyFused() /
 * compareFused() entry points. Whole-roster conformance against the
 * virtual path lives in arena_conformance_test.
 */
#include "mbp/sim/kernels.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "mbp/predictors/batage.hpp"
#include "mbp/predictors/bimodal.hpp"
#include "mbp/predictors/gshare.hpp"
#include "mbp/predictors/tage.hpp"
#include "mbp/predictors/tage_scl.hpp"
#include "mbp/sbbt/writer.hpp"
#include "mbp/sim/simulator.hpp"
#include "test_tmp.hpp"

using namespace mbp;

namespace
{

// The dispatch-selection contracts, pinned at compile time: table
// predictors offer the fused single-step (Gshare also the per-site
// fold), and the TAGE family offers the fused step plus the multi-bank
// prefetch form — but never the per-site fold, since its table indexes
// depend on the live history.
static_assert(KernelFusedStep<pred::Bimodal<16>>);
static_assert(KernelSiteFold<pred::Bimodal<16>>);
static_assert(KernelFusedStep<pred::Gshare<15, 17>>);
static_assert(KernelSiteFold<pred::Gshare<15, 17>>);
static_assert(KernelPrefetchable<pred::Gshare<15, 17>>);
static_assert(!KernelMultiPrefetch<pred::Gshare<15, 17>>);
static_assert(KernelFusedStep<pred::Tage>);
static_assert(KernelFusedStep<pred::Batage>);
static_assert(KernelFusedStep<pred::TageScl>);
static_assert(!KernelSiteFold<pred::Tage>);
static_assert(!KernelSiteFold<pred::Batage>);
static_assert(!KernelSiteFold<pred::TageScl>);
static_assert(KernelMultiPrefetch<pred::Tage>);
static_assert(KernelMultiPrefetch<pred::Batage>);
static_assert(KernelMultiPrefetch<pred::TageScl>);
static_assert(!KernelPrefetchable<pred::Tage>);
// Per-predictor prefetch distance: declared by the TAGE family, the
// global default for everything else.
static_assert(kernelPrefetchDistanceOf<pred::Tage>() ==
              pred::Tage::kPrefetchDistance);
static_assert(kernelPrefetchDistanceOf<pred::Gshare<15, 17>>() ==
              kKernelPrefetchDistance);

/** Timing metrics: the only fields allowed to differ fused vs virtual. */
bool
isTimingKey(const std::string &key)
{
    return key == "simulation_time" || key == "branches_per_second" ||
           key == "decompressed_bytes" ||
           key == "prefetch_stall_seconds" ||
           key == "trace_load_seconds";
}

json_t
scrubTiming(const json_t &value)
{
    if (value.isObject()) {
        json_t out = json_t::object({});
        for (const auto &[key, member] : value.members()) {
            if (isTimingKey(key))
                continue;
            out[key] = scrubTiming(member);
        }
        return out;
    }
    if (value.isArray()) {
        json_t out = json_t::array();
        for (std::size_t i = 0; i < value.size(); ++i)
            out.push_back(scrubTiming(value[i]));
        return out;
    }
    return value;
}

/**
 * Writes a trace of @p num_branches with 10 instructions per branch
 * (branch k, 1-based, sits at instruction 10k), mixing a handful of
 * branch sites with an unconditional jump every seventh branch so the
 * kernels' conditional/unconditional split is exercised.
 */
std::string
writeKernelTrace(const std::string &name, std::size_t num_branches)
{
    std::string path = mbp::test::tempDir() + "/" + name;
    sbbt::SbbtWriter writer(path);
    EXPECT_TRUE(writer.ok()) << writer.error();
    std::mt19937_64 rng(20260808);
    for (std::size_t i = 0; i < num_branches; ++i) {
        const std::uint64_t ip = 0x1000 + 16 * (rng() % 97);
        const bool taken = (rng() % 3) != 0;
        const Branch b = (i % 7 == 6)
                             ? Branch{ip, 0x9000, OpCode::jump(), true}
                             : Branch{ip, 0x9000, OpCode::condJump(),
                                      taken};
        EXPECT_TRUE(writer.append(b, 9));
    }
    EXPECT_TRUE(writer.close()) << writer.error();
    return path;
}

/**
 * Runs Gshare fused and virtual over @p args (plus a hooked fused pass
 * for the prediction stream) and expects identical results.
 */
void
expectFusedMatchesVirtual(const SimArgs &base)
{
    pred::Gshare<15, 17> fused_pred;
    pred::Gshare<15, 17> virtual_pred;
    json_t fused_doc = simulateFused(fused_pred, base);
    json_t virtual_doc = simulate(virtual_pred, base);
    ASSERT_FALSE(fused_doc.contains("error")) << fused_doc.dump(2);
    ASSERT_FALSE(virtual_doc.contains("error")) << virtual_doc.dump(2);
    EXPECT_EQ(scrubTiming(fused_doc).dump(2),
              scrubTiming(virtual_doc).dump(2));

    std::string fused_bytes, virtual_bytes;
    SimArgs fused_args = base;
    SimArgs virtual_args = base;
    fused_args.prediction_hook = [&fused_bytes](const Branch &, bool p,
                                                std::uint64_t, bool) {
        fused_bytes.push_back(p ? 'T' : 'N');
    };
    virtual_args.prediction_hook = [&virtual_bytes](const Branch &, bool p,
                                                    std::uint64_t, bool) {
        virtual_bytes.push_back(p ? 'T' : 'N');
    };
    pred::Gshare<15, 17> hooked_fused;
    pred::Gshare<15, 17> hooked_virtual;
    simulateFused(hooked_fused, fused_args);
    simulate(hooked_virtual, virtual_args);
    EXPECT_EQ(fused_bytes, virtual_bytes);
}

class KernelBoundaryTest : public testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        // Two and a half kernel blocks of branches, so every boundary
        // case below lands where intended.
        trace_path_ = new std::string(writeKernelTrace(
            "kernel_boundaries.sbbt", 2 * kKernelBlockBranches + 2048));
    }

    static void
    TearDownTestSuite()
    {
        std::remove(trace_path_->c_str());
        delete trace_path_;
        trace_path_ = nullptr;
    }

    static SimArgs
    args()
    {
        SimArgs a;
        a.trace_path = *trace_path_;
        a.in_memory = true;
        return a;
    }

    static std::string *trace_path_;
};

std::string *KernelBoundaryTest::trace_path_ = nullptr;

} // namespace

TEST_F(KernelBoundaryTest, WarmupEndsMidBlock)
{
    SimArgs a = args();
    a.warmup_instr = 10 * (kKernelBlockBranches + 1000) + 5;
    expectFusedMatchesVirtual(a);
}

TEST_F(KernelBoundaryTest, InstructionLimitStopsMidBlock)
{
    SimArgs a = args();
    a.sim_instr = 10 * (kKernelBlockBranches + 700);
    expectFusedMatchesVirtual(a);
}

TEST_F(KernelBoundaryTest, InstructionLimitAtExactBlockBoundary)
{
    // Branch k (1-based) is at instruction 10k, so this limit admits
    // exactly one full block of branches and not one more.
    SimArgs a = args();
    a.sim_instr = 10 * kKernelBlockBranches;
    expectFusedMatchesVirtual(a);
}

TEST_F(KernelBoundaryTest, WarmupAndLimitInTheSameBlock)
{
    SimArgs a = args();
    a.warmup_instr = 10 * (kKernelBlockBranches + 100);
    a.sim_instr = 10 * 500; // measured window inside block two
    expectFusedMatchesVirtual(a);
}

TEST_F(KernelBoundaryTest, WarmupConsumingTheWholeTraceMeasuresNothing)
{
    SimArgs a = args();
    a.warmup_instr = 10u * (2 * kKernelBlockBranches + 2048) + 1000;
    pred::Gshare<15, 17> fused_pred;
    json_t doc = simulateFused(fused_pred, a);
    ASSERT_FALSE(doc.contains("error")) << doc.dump(2);
    EXPECT_EQ(doc.find("metrics")->find("mispredictions")->asUint(), 0u);
    EXPECT_EQ(doc.find("metadata")
                  ->find("num_conditional_branches")
                  ->asUint(),
              0u);
    EXPECT_EQ(doc.find("most_failed")->size(), 0u);
    expectFusedMatchesVirtual(a);
}

TEST_F(KernelBoundaryTest, CollectDisabledMatchesToo)
{
    SimArgs a = args();
    a.warmup_instr = 10 * (kKernelBlockBranches + 1000) + 5;
    a.collect_most_failed = false;
    expectFusedMatchesVirtual(a);
}

TEST(KernelShortTrace, TraceShorterThanOneBlock)
{
    std::string path = writeKernelTrace("kernel_short.sbbt", 300);
    SimArgs a;
    a.trace_path = path;
    a.in_memory = true;
    a.warmup_instr = 10 * 100 + 5; // warmup still ends mid-"block"
    expectFusedMatchesVirtual(a);
    std::remove(path.c_str());
}

TEST(KernelFusedStep, BimodalMatchesSeparateCalls)
{
    pred::Bimodal<10> fused;
    pred::Bimodal<10> separate;
    std::mt19937_64 rng(11);
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t ip = 0x4000 + 4 * (rng() % 300);
        const bool taken = (rng() & 1) != 0;
        const bool fused_guess = fused.fusedStep(ip, taken);
        const bool separate_guess = separate.predict(ip);
        const Branch b{ip, 0x9000, OpCode::condJump(), taken};
        separate.train(b);
        separate.track(b);
        ASSERT_EQ(fused_guess, separate_guess) << "diverged at step " << i;
    }
}

TEST(KernelFusedStep, GshareMatchesSeparateCalls)
{
    pred::Gshare<7, 9> fused;
    pred::Gshare<7, 9> separate;
    std::mt19937_64 rng(13);
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t ip = 0x4000 + 4 * (rng() % 300);
        const bool taken = (rng() & 1) != 0;
        const bool fused_guess = fused.fusedStep(ip, taken);
        const bool separate_guess = separate.predict(ip);
        const Branch b{ip, 0x9000, OpCode::condJump(), taken};
        separate.train(b);
        separate.track(b);
        ASSERT_EQ(fused_guess, separate_guess) << "diverged at step " << i;
    }
}

TEST(KernelFusedStep, SiteFoldFactorizationIsExact)
{
    // fusedStepFolded(siteFold(ip), taken) must be exactly
    // fusedStep(ip, taken) — for Gshare this is the XorFold linearity
    // argument (fold of ip XOR history == fold of ip, XOR history when
    // the history fits one fold chunk) checked against the direct hash.
    pred::Gshare<7, 9> folded;
    pred::Gshare<7, 9> direct;
    pred::Bimodal<10> folded_bim;
    pred::Bimodal<10> direct_bim;
    std::mt19937_64 rng(17);
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t ip = 0x4000 + 4 * (rng() % 300);
        const bool taken = (rng() & 1) != 0;
        ASSERT_EQ(folded.fusedStepFolded(folded.siteFold(ip), taken),
                  direct.fusedStep(ip, taken))
            << "gshare diverged at step " << i;
        ASSERT_EQ(
            folded_bim.fusedStepFolded(folded_bim.siteFold(ip), taken),
            direct_bim.fusedStep(ip, taken))
            << "bimodal diverged at step " << i;
    }
}

TEST(KernelVariadic, SimulateManyFusedMatchesVirtual)
{
    std::string path = writeKernelTrace("kernel_many.sbbt", 6000);
    SimArgs a;
    a.trace_path = path;
    a.in_memory = true;
    a.warmup_instr = 10 * 2000 + 5;

    pred::Bimodal<12> fused_bim;
    pred::Gshare<9, 11> fused_gsh;
    json_t fused_doc = simulateManyFused(a, fused_bim, fused_gsh);

    pred::Bimodal<12> virtual_bim;
    pred::Gshare<9, 11> virtual_gsh;
    std::vector<Predictor *> preds{&virtual_bim, &virtual_gsh};
    json_t virtual_doc = simulateMany(preds, a);

    ASSERT_FALSE(fused_doc.contains("error")) << fused_doc.dump(2);
    ASSERT_FALSE(virtual_doc.contains("error")) << virtual_doc.dump(2);
    EXPECT_EQ(scrubTiming(fused_doc).dump(2),
              scrubTiming(virtual_doc).dump(2));
    std::remove(path.c_str());
}

TEST(KernelVariadic, CompareFusedMatchesVirtual)
{
    std::string path = writeKernelTrace("kernel_cmp.sbbt", 6000);
    SimArgs a;
    a.trace_path = path;
    a.in_memory = true;

    pred::Bimodal<12> fused_bim;
    pred::Gshare<9, 11> fused_gsh;
    json_t fused_doc = compareFused(fused_bim, fused_gsh, a);

    pred::Bimodal<12> virtual_bim;
    pred::Gshare<9, 11> virtual_gsh;
    json_t virtual_doc = compare(virtual_bim, virtual_gsh, a);

    ASSERT_FALSE(fused_doc.contains("error")) << fused_doc.dump(2);
    ASSERT_FALSE(virtual_doc.contains("error")) << virtual_doc.dump(2);
    EXPECT_EQ(scrubTiming(fused_doc).dump(2),
              scrubTiming(virtual_doc).dump(2));
    std::remove(path.c_str());
}

TEST(KernelBorrow, FusedKernelBorrowsACallerOwnedPredictor)
{
    // The borrowing FusedKernel constructor must leave the predictor's
    // learned state with the caller after the run.
    std::string path = writeKernelTrace("kernel_borrow.sbbt", 2000);
    SimArgs a;
    a.trace_path = path;
    a.in_memory = true;

    pred::Bimodal<12> borrowed;
    {
        FusedKernel<pred::Bimodal<12>> kernel(borrowed);
        FusedKernel<pred::Gshare<9, 11>> other(
            std::make_unique<pred::Gshare<9, 11>>());
        json_t doc = compareFused(kernel, other, a);
        ASSERT_FALSE(doc.contains("error")) << doc.dump(2);
    }
    // The same branches replayed through an equally-trained twin now
    // predict identically — evidence the borrowed instance was the one
    // trained.
    pred::Bimodal<12> twin;
    json_t twin_doc = simulateFused(twin, a);
    ASSERT_FALSE(twin_doc.contains("error"));
    for (std::uint64_t ip = 0x1000; ip < 0x1000 + 16 * 97; ip += 16)
        EXPECT_EQ(borrowed.predict(ip), twin.predict(ip));
    std::remove(path.c_str());
}
