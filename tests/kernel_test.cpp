/**
 * @file
 * Unit tests for the fused simulation kernels (mbp/sim/kernels.hpp):
 * block-boundary edge cases of the pre-partitioned loops over every
 * block source — arena slices and streaming windows — (warmup ending
 * mid-block, instruction limit mid-block and at an exact block boundary,
 * traces shorter than one block), the KernelSiteFold equivalence
 * contract and which predictors step in two phases
 * (KernelTwoPhase), and the variadic simulateManyFused() /
 * compareFused() entry points. Whole-roster conformance against the
 * virtual path lives in arena_conformance_test.
 */
#include "mbp/sim/kernels.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "mbp/frontend/frontend.hpp"
#include "mbp/predictors/batage.hpp"
#include "mbp/predictors/bimodal.hpp"
#include "mbp/predictors/gshare.hpp"
#include "mbp/predictors/tage.hpp"
#include "mbp/predictors/tage_scl.hpp"
#include "mbp/sbbt/reader.hpp"
#include "mbp/sbbt/writer.hpp"
#include "mbp/sim/simulator.hpp"
#include "test_tmp.hpp"

using namespace mbp;

namespace
{

// The dispatch-selection contracts, pinned at compile time: table
// predictors step each conditional on a per-site fold of its address —
// GShare whether or not its history fits one fold chunk — and the TAGE
// family steps in two phases — its history work, which the trace alone
// determines, then its tables — and has no per-site fold.
static_assert(KernelSiteFold<pred::Bimodal<16>>);
static_assert(KernelSiteFold<pred::Gshare<15, 17>>);
static_assert(KernelSiteFold<pred::Gshare<25, 18>>);
static_assert(!KernelTwoPhase<pred::Gshare<15, 17>>);
static_assert(KernelTwoPhase<pred::Tage>);
static_assert(KernelTwoPhase<pred::Batage>);
static_assert(KernelTwoPhase<pred::TageScl>);
static_assert(!KernelSiteFold<pred::Tage>);
static_assert(!KernelSiteFold<pred::Batage>);
static_assert(!KernelSiteFold<pred::TageScl>);
// The front end stays an instantiable kernel: a new pure virtual on
// BlockKernel breaks the build here, not a test at run time.
static_assert(!std::is_abstract_v<frontend::FrontEnd>);

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

using SimRun = std::function<json_t(const SimArgs &)>;

/**
 * The conditional prediction stream of a hooked run: one byte per
 * (branch, predictor), 'T'/'N' shifted by the predictor index.
 */
std::string
predictionStream(SimArgs args, const SimRun &run)
{
    std::string bytes;
    args.prediction_hook = [&bytes](const Branch &, bool p, std::uint64_t,
                                    bool, std::size_t k) {
        bytes.push_back(static_cast<char>((p ? 'T' : 'N') + 32 * k));
    };
    run(args);
    return bytes;
}

/**
 * Runs Gshare fused and virtual, alone and compared against Bimodal,
 * over @p base from every block source — the decoded arena, and
 * streaming windows fed by reader blocks that match the 4096-branch
 * window or do not (1000 packets) — and expects every document and
 * prediction stream to equal the virtual arena run's.
 */
void
expectFusedMatchesVirtual(const SimArgs &base)
{
    const std::vector<std::vector<std::pair<const char *, SimRun>>> families =
        {{{"simulate",
           [](const SimArgs &a) {
               pred::Gshare<15, 17> p;
               return simulate(p, a);
           }},
          {"simulateFused",
           [](const SimArgs &a) {
               pred::Gshare<15, 17> p;
               return simulateFused(p, a);
           }}},
         {{"compare",
           [](const SimArgs &a) {
               pred::Gshare<15, 17> p;
               pred::Bimodal<12> q;
               return compare(p, q, a);
           }},
          {"compareFused", [](const SimArgs &a) {
               pred::Gshare<15, 17> p;
               pred::Bimodal<12> q;
               return compareFused(p, q, a);
           }}}};

    SimArgs arena = base;
    arena.in_memory = true;
    SimArgs stream = base;
    stream.in_memory = false;
    SimArgs ragged = stream;
    ragged.reader_block_packets = 1000;
    const std::vector<std::pair<const char *, SimArgs>> sources = {
        {"arena", arena}, {"stream", stream}, {"ragged-stream", ragged}};

    for (const auto &family : families) {
        const SimRun &reference_run = family.front().second;
        const json_t reference = reference_run(arena);
        ASSERT_FALSE(reference.contains("error")) << reference.dump(2);
        const std::string reference_doc = scrubTiming(reference).dump(2);
        const std::string reference_stream =
            predictionStream(arena, reference_run);
        for (const auto &[source, args] : sources) {
            for (const auto &[name, run] : family) {
                SCOPED_TRACE(std::string(source) + " " + name);
                EXPECT_EQ(scrubTiming(run(args)).dump(2), reference_doc);
                EXPECT_EQ(predictionStream(args, run), reference_stream);
            }
        }
    }
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

TEST(KernelStreamingError, HookSeesEveryBranchBeforeTheError)
{
    // A raw trace cut mid-packet, past the first streaming window: every
    // driver hands the hook each whole packet's conditional branch, then
    // returns the reader's error — the same document an arena run gives.
    std::string path = writeKernelTrace("kernel_cut.sbbt",
                                        2 * kKernelBlockBranches + 2048);
    constexpr std::size_t kWhole = kKernelBlockBranches + 1000;
    std::filesystem::resize_file(
        path, sbbt::kHeaderSize + kWhole * sbbt::kPacketSize + 7);
    std::size_t conditionals = 0;
    {
        sbbt::SbbtReader reader(path);
        sbbt::PacketData packet;
        while (reader.next(packet))
            conditionals += packet.branch.isConditional() ? 1 : 0;
        ASSERT_EQ(reader.branchesRead(), kWhole);
        ASSERT_NE(reader.error(), "");
    }
    SimArgs args;
    args.trace_path = path;
    SimArgs arena = args;
    arena.in_memory = true;
    const std::vector<std::pair<const char *, SimRun>> runs = {
        {"simulate",
         [](const SimArgs &a) {
             pred::Gshare<15, 17> p;
             return simulate(p, a);
         }},
        {"simulateFused",
         [](const SimArgs &a) {
             pred::Gshare<15, 17> p;
             return simulateFused(p, a);
         }},
        {"compare", [](const SimArgs &a) {
             pred::Gshare<15, 17> p;
             pred::Bimodal<12> q;
             return compare(p, q, a);
         }}};
    for (const auto &[name, run] : runs) {
        SCOPED_TRACE(name);
        const json_t doc = run(args);
        ASSERT_TRUE(doc.contains("error"));
        EXPECT_FALSE(doc.contains("metrics"));
        EXPECT_EQ(doc.dump(2), run(arena).dump(2));
        const std::size_t per_branch = std::string(name) == "compare" ? 2 : 1;
        EXPECT_EQ(predictionStream(args, run).size(),
                  conditionals * per_branch);
    }
    std::remove(path.c_str());
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

/**
 * Steps one @p P through fusedStepFolded(siteFold(ip), taken) and another
 * through predict(ip), train(b), track(b) on the same random stream of
 * conditionals at addresses 0x4000 + 4 * (draw % @p num_sites), spread
 * over the high address bits by @p ip_spread: the guesses must agree at
 * every step.
 */
template <typename P>
void
expectFoldedStepMatchesSeparateCalls(unsigned seed, std::uint64_t num_sites,
                                     std::uint64_t ip_spread)
{
    auto folded = std::make_unique<P>();
    auto separate = std::make_unique<P>();
    std::mt19937_64 rng(seed);
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t site = rng() % num_sites;
        const std::uint64_t ip = 0x4000 + 4 * site + site * ip_spread;
        const bool taken = (rng() & 1) != 0;
        const bool folded_guess =
            folded->fusedStepFolded(folded->siteFold(ip), taken);
        const bool separate_guess = separate->predict(ip);
        const Branch b{ip, 0x9000, OpCode::condJump(), taken};
        separate->train(b);
        separate->track(b);
        ASSERT_EQ(folded_guess, separate_guess) << "diverged at step " << i;
    }
}

TEST(KernelFusedStep, BimodalMatchesSeparateCalls)
{
    expectFoldedStepMatchesSeparateCalls<pred::Bimodal<10>>(11, 300, 0);
}

TEST(KernelFusedStep, GshareMatchesSeparateCalls)
{
    // H <= T: the history fits one fold chunk.
    expectFoldedStepMatchesSeparateCalls<pred::Gshare<7, 9>>(13, 300, 0);
}

TEST(KernelFusedStep, SiteFoldFactorizationIsExact)
{
    // H > T: the step folds the history too, which is exact by XorFold's
    // linearity (the fold of ip XOR history is the fold of ip XOR the
    // fold of history), over addresses that reach the high fold chunks.
    expectFoldedStepMatchesSeparateCalls<pred::Gshare<25, 18>>(
        17, 300, 0x9e3779b97f4a7c15ull);
    expectFoldedStepMatchesSeparateCalls<pred::Gshare<23, 5>>(
        19, 300, 0x9e3779b97f4a7c15ull);
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
