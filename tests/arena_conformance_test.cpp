/**
 * @file
 * Streaming-vs-arena conformance: simulate()'s two trace sources — the
 * per-run SbbtReader and the shared in-memory MemTrace arena — must be
 * observationally identical. For every roster predictor the per-branch
 * prediction stream (captured byte-by-byte through
 * SimArgs::prediction_hook) must match exactly, and the full simulate()
 * JSON must match modulo the timing observability fields, which are the
 * only place the pipelines are allowed to differ. The same holds for the
 * N-ary simulateMany()/compare() path and for the memory-budget fallback,
 * which silently streams instead of failing.
 *
 * The fused kernels (mbp/sim/kernels.hpp) are held to the same bar
 * against the virtual arena path: per roster predictor, byte-identical
 * prediction streams and identical documents modulo timing, both with a
 * hook installed and hook-free. Both run the fused-step and per-site-fold
 * fast paths (the hook is replayed after each block, so it never changes
 * the step the kernel runs); the hooked runs pin them byte by byte, the
 * hook-free ones through the misprediction totals and per-site ranking
 * rows of the document.
 */
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "mbp/frontend/frontend.hpp"
#include "mbp/predictors/roster.hpp"
#include "mbp/sbbt/mem_trace.hpp"
#include "mbp/sbbt/reader.hpp"
#include "mbp/sbbt/writer.hpp"
#include "mbp/sim/kernels.hpp"
#include "mbp/sim/simulator.hpp"
#include "mbp/tracegen/adversarial.hpp"
#include "mbp/tracegen/generator.hpp"
#include "test_tmp.hpp"

using namespace mbp;

namespace
{

/** Timing metrics: the only fields allowed to differ between sources. */
bool
isTimingKey(const std::string &key)
{
    return key == "simulation_time" || key == "branches_per_second" ||
           key == "decompressed_bytes" || key == "prefetch_stall_seconds" ||
           key == "trace_load_seconds";
}

/** Deep copy of @p value with every timing key dropped. */
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

class ArenaConformanceTest : public testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        trace_path_ = new std::string(mbp::test::tempDir() +
                                      "/arena_conformance.sbbt");
        tracegen::WorkloadSpec spec;
        spec.seed = 20260805;
        spec.num_instr = 150'000;
        spec.noise_fraction = 0.15;
        sbbt::SbbtWriter writer(*trace_path_);
        tracegen::TraceGenerator gen(spec);
        tracegen::TraceEvent ev;
        while (gen.next(ev))
            ASSERT_TRUE(writer.append(ev.branch, ev.instr_gap));
        ASSERT_TRUE(writer.close()) << writer.error();
    }

    static void
    TearDownTestSuite()
    {
        std::remove(trace_path_->c_str());
        delete trace_path_;
        trace_path_ = nullptr;
    }

    /** Base arguments exercising the warmup window split. */
    static SimArgs
    baseArgs()
    {
        SimArgs args;
        args.trace_path = *trace_path_;
        args.warmup_instr = 40'000;
        return args;
    }

    /** simulate() capturing the exact per-branch prediction stream. */
    static json_t
    run(Predictor &predictor, SimArgs args, std::string &stream)
    {
        stream.clear();
        args.prediction_hook = [&stream](const Branch &, bool predicted,
                                         std::uint64_t, bool) {
            stream.push_back(predicted ? 'T' : 'N');
        };
        json_t result = simulate(predictor, args);
        EXPECT_FALSE(result.contains("error")) << result.dump(2);
        return result;
    }

    /** Fused run of roster entry @p name capturing the same stream. */
    static json_t
    runFused(const std::string &name, SimArgs args, std::string &stream)
    {
        stream.clear();
        args.prediction_hook = [&stream](const Branch &, bool predicted,
                                         std::uint64_t, bool) {
            stream.push_back(predicted ? 'T' : 'N');
        };
        std::unique_ptr<BlockKernel> kernel = pred::fusedKernelByName(name);
        EXPECT_NE(kernel, nullptr) << name;
        if (kernel == nullptr)
            return json_t::object();
        json_t result = detail::simulateKernel(*kernel, args);
        EXPECT_FALSE(result.contains("error")) << result.dump(2);
        return result;
    }

    /**
     * N-ary stream: one record per (branch x predictor), in hook firing
     * order, carrying the predictor index so stream interleaving is
     * pinned too.
     */
    static PredictionHook
    manyHook(std::string &stream)
    {
        return [&stream](const Branch &, bool predicted, std::uint64_t,
                         bool measured, std::size_t index) {
            stream.push_back(static_cast<char>('0' + index));
            stream.push_back(predicted ? 'T' : 'N');
            stream.push_back(measured ? 'm' : 'w');
        };
    }

    static std::string *trace_path_;
};

std::string *ArenaConformanceTest::trace_path_ = nullptr;

} // namespace

TEST_F(ArenaConformanceTest, EveryRosterPredictorIsSourceInvariant)
{
    for (const std::string &name : pred::rosterNames()) {
        auto streaming_pred = pred::makeByName(name);
        auto arena_pred = pred::makeByName(name);
        ASSERT_NE(streaming_pred, nullptr) << name;

        SimArgs streaming_args = baseArgs();
        streaming_args.in_memory = false;
        SimArgs arena_args = baseArgs();
        arena_args.in_memory = true;

        std::string streaming_bytes, arena_bytes;
        json_t streaming = run(*streaming_pred, streaming_args,
                               streaming_bytes);
        json_t arena = run(*arena_pred, arena_args, arena_bytes);

        EXPECT_GT(streaming_bytes.size(), 0u) << name;
        EXPECT_EQ(streaming_bytes, arena_bytes)
            << name << ": prediction streams diverge between sources";
        EXPECT_EQ(scrubTiming(streaming).dump(2), scrubTiming(arena).dump(2))
            << name;
    }
}

TEST_F(ArenaConformanceTest, PreloadedArenaMatchesPathLoadedArena)
{
    std::string error;
    auto arena = sbbt::MemTrace::load(*trace_path_, {}, &error);
    ASSERT_NE(arena, nullptr) << error;

    auto self_pred = pred::makeByName("gshare");
    auto preloaded_pred = pred::makeByName("gshare");

    SimArgs self_args = baseArgs();
    self_args.in_memory = true;
    SimArgs preloaded_args = baseArgs();
    preloaded_args.preloaded = arena; // as sweep cells hand it over

    std::string self_bytes, preloaded_bytes;
    json_t self_loaded = run(*self_pred, self_args, self_bytes);
    json_t preloaded = run(*preloaded_pred, preloaded_args,
                           preloaded_bytes);

    EXPECT_EQ(self_bytes, preloaded_bytes);
    EXPECT_EQ(scrubTiming(self_loaded).dump(2),
              scrubTiming(preloaded).dump(2));
    // A preloaded arena costs the run nothing to load; a self-loaded one
    // reports its actual decode time.
    EXPECT_EQ(preloaded.find("metrics")
                  ->find("trace_load_seconds")
                  ->asDouble(),
              0.0);
}

TEST_F(ArenaConformanceTest, MappedSbbtaArenaIsDecodeInvariantForRoster)
{
    // The zero-decode tier: an arena mapped from its SBBT-A sidecar must
    // be observationally identical to the arena decoded from the SBBT
    // stream — for every roster predictor, byte-identical prediction
    // streams and identical documents modulo timing.
    std::string error;
    auto decoded = sbbt::MemTrace::load(*trace_path_, {}, &error);
    ASSERT_NE(decoded, nullptr) << error;

    const std::string sidecar =
        mbp::test::tempDir() + "/arena_conformance.sbbta";
    ASSERT_TRUE(decoded->writeArena(sidecar, 0, &error)) << error;
    auto mapped = sbbt::MemTrace::mapFile(sidecar, &error);
    ASSERT_NE(mapped, nullptr) << error;
    ASSERT_TRUE(mapped->mapped());

    for (const std::string &name : pred::rosterNames()) {
        auto decoded_pred = pred::makeByName(name);
        auto mapped_pred = pred::makeByName(name);
        ASSERT_NE(decoded_pred, nullptr) << name;

        SimArgs decoded_args = baseArgs();
        decoded_args.preloaded = decoded;
        SimArgs mapped_args = baseArgs();
        mapped_args.preloaded = mapped;

        std::string decoded_bytes, mapped_bytes;
        json_t decoded_doc = run(*decoded_pred, decoded_args,
                                 decoded_bytes);
        json_t mapped_doc = run(*mapped_pred, mapped_args, mapped_bytes);

        EXPECT_GT(decoded_bytes.size(), 0u) << name;
        EXPECT_EQ(decoded_bytes, mapped_bytes)
            << name << ": prediction streams diverge mapped vs decoded";
        EXPECT_EQ(scrubTiming(decoded_doc).dump(2),
                  scrubTiming(mapped_doc).dump(2))
            << name;
    }
    std::remove(sidecar.c_str());
}

TEST_F(ArenaConformanceTest, TinyMemBudgetFallsBackToStreamingSilently)
{
    auto budget_pred = pred::makeByName("bimodal");
    auto streaming_pred = pred::makeByName("bimodal");

    SimArgs budget_args = baseArgs();
    budget_args.in_memory = true;
    budget_args.mem_budget = 1; // no real trace fits one byte
    SimArgs streaming_args = baseArgs();
    streaming_args.in_memory = false;

    std::string budget_bytes, streaming_bytes;
    json_t budgeted = run(*budget_pred, budget_args, budget_bytes);
    json_t streaming = run(*streaming_pred, streaming_args,
                           streaming_bytes);

    EXPECT_EQ(budget_bytes, streaming_bytes);
    EXPECT_EQ(scrubTiming(budgeted).dump(2), scrubTiming(streaming).dump(2));
    // The fallback is the streaming pipeline, so it pays no load time.
    EXPECT_EQ(budgeted.find("metrics")
                  ->find("trace_load_seconds")
                  ->asDouble(),
              0.0);
}

TEST_F(ArenaConformanceTest, SimulateManyIsSourceInvariant)
{
    const std::vector<std::string> names = {"bimodal", "gshare", "batage"};
    std::vector<std::unique_ptr<Predictor>> streaming_preds, arena_preds;
    std::vector<Predictor *> streaming_ptrs, arena_ptrs;
    for (const std::string &name : names) {
        streaming_preds.push_back(pred::makeByName(name));
        arena_preds.push_back(pred::makeByName(name));
        ASSERT_NE(streaming_preds.back(), nullptr) << name;
        streaming_ptrs.push_back(streaming_preds.back().get());
        arena_ptrs.push_back(arena_preds.back().get());
    }

    SimArgs streaming_args = baseArgs();
    streaming_args.in_memory = false;
    SimArgs arena_args = baseArgs();
    arena_args.in_memory = true;

    json_t streaming = simulateMany(streaming_ptrs, streaming_args);
    json_t arena = simulateMany(arena_ptrs, arena_args);
    ASSERT_FALSE(streaming.contains("error")) << streaming.dump(2);
    ASSERT_FALSE(arena.contains("error")) << arena.dump(2);
    EXPECT_EQ(scrubTiming(streaming).dump(2), scrubTiming(arena).dump(2));
    // One pass over three predictors: per-predictor metrics plus the
    // per-branch ranking annotated with the N-ary spread.
    EXPECT_NE(streaming.find("metrics")->find("mpki_2"), nullptr);
    const json_t &ranked = *streaming.find("most_failed");
    ASSERT_GT(ranked.size(), 0u);
    EXPECT_NE(ranked[0].find("mpki_spread"), nullptr);
}

TEST_F(ArenaConformanceTest, CompareIsSourceInvariant)
{
    auto streaming_a = pred::makeByName("bimodal");
    auto streaming_b = pred::makeByName("gshare");
    auto arena_a = pred::makeByName("bimodal");
    auto arena_b = pred::makeByName("gshare");

    SimArgs streaming_args = baseArgs();
    streaming_args.in_memory = false;
    SimArgs arena_args = baseArgs();
    arena_args.in_memory = true;

    json_t streaming = compare(*streaming_a, *streaming_b, streaming_args);
    json_t arena = compare(*arena_a, *arena_b, arena_args);
    ASSERT_FALSE(streaming.contains("error")) << streaming.dump(2);
    ASSERT_FALSE(arena.contains("error")) << arena.dump(2);
    EXPECT_EQ(scrubTiming(streaming).dump(2), scrubTiming(arena).dump(2));
}

TEST_F(ArenaConformanceTest, InstructionLimitCutsBothSourcesIdentically)
{
    // A sim_instr limit that stops mid-trace: the limit break must fire
    // on the same branch for both sources (exhausted() parity).
    auto streaming_pred = pred::makeByName("tage");
    auto arena_pred = pred::makeByName("tage");

    SimArgs streaming_args = baseArgs();
    streaming_args.in_memory = false;
    streaming_args.sim_instr = 50'000;
    SimArgs arena_args = streaming_args;
    arena_args.in_memory = true;

    std::string streaming_bytes, arena_bytes;
    json_t streaming = run(*streaming_pred, streaming_args,
                           streaming_bytes);
    json_t arena = run(*arena_pred, arena_args, arena_bytes);

    EXPECT_EQ(streaming_bytes, arena_bytes);
    EXPECT_EQ(scrubTiming(streaming).dump(2), scrubTiming(arena).dump(2));
    EXPECT_EQ(streaming.find("metadata")
                  ->find("simulation_instr")
                  ->asUint(),
              arena.find("metadata")->find("simulation_instr")->asUint());
}

TEST_F(ArenaConformanceTest, EveryRosterPredictorFusedMatchesVirtual)
{
    // With a hook installed the kernels take the separate
    // predict/train/track calls, so this pins the fused loop structure
    // (partitioning, measurement flags, branch ordering) byte by byte.
    for (const std::string &name : pred::rosterNames()) {
        auto virtual_pred = pred::makeByName(name);
        ASSERT_NE(virtual_pred, nullptr) << name;

        SimArgs args = baseArgs();
        args.in_memory = true;

        std::string virtual_bytes, fused_bytes;
        json_t virtual_doc = run(*virtual_pred, args, virtual_bytes);
        json_t fused_doc = runFused(name, args, fused_bytes);

        EXPECT_GT(virtual_bytes.size(), 0u) << name;
        EXPECT_EQ(virtual_bytes, fused_bytes)
            << name << ": prediction streams diverge fused vs virtual";
        EXPECT_EQ(scrubTiming(virtual_doc).dump(2),
                  scrubTiming(fused_doc).dump(2))
            << name;
    }
}

TEST_F(ArenaConformanceTest, EveryRosterPredictorFusedHookFreeJsonMatches)
{
    // Hook-free is the configuration runs take by default (no guesses
    // written); the document's misprediction totals and per-site
    // ranking rows then pin the whole prediction stream (any divergent
    // guess changes a per-site misprediction count).
    for (const std::string &name : pred::rosterNames()) {
        auto virtual_pred = pred::makeByName(name);
        ASSERT_NE(virtual_pred, nullptr) << name;
        std::unique_ptr<BlockKernel> kernel = pred::fusedKernelByName(name);
        ASSERT_NE(kernel, nullptr) << name;

        SimArgs args = baseArgs();
        args.in_memory = true;

        json_t virtual_doc = simulate(*virtual_pred, args);
        json_t fused_doc = detail::simulateKernel(*kernel, args);
        ASSERT_FALSE(virtual_doc.contains("error")) << virtual_doc.dump(2);
        ASSERT_FALSE(fused_doc.contains("error")) << fused_doc.dump(2);
        EXPECT_EQ(scrubTiming(virtual_doc).dump(2),
                  scrubTiming(fused_doc).dump(2))
            << name;
    }
}

TEST_F(ArenaConformanceTest, FusedManyMatchesVirtualSimulateMany)
{
    const std::vector<std::string> names = {"bimodal", "gshare", "batage"};
    std::vector<std::unique_ptr<Predictor>> virtual_preds;
    std::vector<Predictor *> virtual_ptrs;
    std::vector<std::unique_ptr<BlockKernel>> kernels;
    std::vector<BlockKernel *> kernel_ptrs;
    for (const std::string &name : names) {
        virtual_preds.push_back(pred::makeByName(name));
        virtual_ptrs.push_back(virtual_preds.back().get());
        kernels.push_back(pred::fusedKernelByName(name));
        ASSERT_NE(kernels.back(), nullptr) << name;
        kernel_ptrs.push_back(kernels.back().get());
    }

    SimArgs virtual_args = baseArgs();
    virtual_args.in_memory = true;
    SimArgs fused_args = virtual_args;
    std::string virtual_stream, fused_stream;
    virtual_args.prediction_hook = manyHook(virtual_stream);
    fused_args.prediction_hook = manyHook(fused_stream);

    json_t virtual_doc = simulateMany(virtual_ptrs, virtual_args);
    json_t fused_doc = simulateManyFused(kernel_ptrs, fused_args);
    ASSERT_FALSE(virtual_doc.contains("error")) << virtual_doc.dump(2);
    ASSERT_FALSE(fused_doc.contains("error")) << fused_doc.dump(2);
    EXPECT_GT(virtual_stream.size(), 0u);
    EXPECT_EQ(virtual_stream, fused_stream)
        << "N-ary streams diverge fused vs virtual";
    EXPECT_EQ(scrubTiming(virtual_doc).dump(2),
              scrubTiming(fused_doc).dump(2));
}

TEST_F(ArenaConformanceTest, FusedCompareMatchesVirtualCompare)
{
    auto virtual_a = pred::makeByName("bimodal");
    auto virtual_b = pred::makeByName("gshare");
    auto kernel_a = pred::fusedKernelByName("bimodal");
    auto kernel_b = pred::fusedKernelByName("gshare");
    ASSERT_NE(kernel_a, nullptr);
    ASSERT_NE(kernel_b, nullptr);

    SimArgs virtual_args = baseArgs();
    virtual_args.in_memory = true;
    SimArgs fused_args = virtual_args;
    std::string virtual_stream, fused_stream;
    virtual_args.prediction_hook = manyHook(virtual_stream);
    fused_args.prediction_hook = manyHook(fused_stream);

    json_t virtual_doc = compare(*virtual_a, *virtual_b, virtual_args);
    json_t fused_doc = compareFused(*kernel_a, *kernel_b, fused_args);
    ASSERT_FALSE(virtual_doc.contains("error")) << virtual_doc.dump(2);
    ASSERT_FALSE(fused_doc.contains("error")) << fused_doc.dump(2);
    EXPECT_EQ(virtual_stream, fused_stream);
    EXPECT_EQ(scrubTiming(virtual_doc).dump(2),
              scrubTiming(fused_doc).dump(2));
}

namespace
{

/** A stream exercising all six branch classes, written as SBBT. */
std::string
mixedClassTrace()
{
    static std::string path;
    if (!path.empty())
        return path;
    path = mbp::test::tempDir() + "/arena_conformance_mixed.sbbt";
    std::vector<tracegen::TraceEvent> events =
        tracegen::deepRecursion(31, 2000, 25);
    for (const tracegen::TraceEvent &ev :
         tracegen::indirectStorm(32, 2000, 5, 17))
        events.push_back(ev);
    for (const tracegen::TraceEvent &ev :
         tracegen::megamorphicSites(33, 2000, 12))
        events.push_back(ev);
    // The generators above cover conditionals, calls, returns and the
    // indirect classes; add plain direct jumps by hand.
    tracegen::StreamBuilder builder;
    for (int i = 0; i < 64; ++i)
        builder.jump(0x700000 + std::uint64_t(i % 8) * 32,
                     0x710000 + std::uint64_t(i % 8) * 64);
    for (const tracegen::TraceEvent &ev : builder.take())
        events.push_back(ev);
    sbbt::SbbtWriter writer(path);
    for (const tracegen::TraceEvent &ev : events)
        EXPECT_TRUE(writer.append(ev.branch, ev.instr_gap));
    EXPECT_TRUE(writer.close()) << writer.error();
    return path;
}

/** Drains @p reader into a packet list. */
std::vector<sbbt::PacketData>
drain(sbbt::SbbtReader &reader)
{
    std::vector<sbbt::PacketData> packets;
    sbbt::PacketData packet;
    while (reader.next(packet))
        packets.push_back(packet);
    return packets;
}

} // namespace

TEST_F(ArenaConformanceTest, NonConditionalClassesRoundTripThroughArena)
{
    // The front-end tier reads calls, returns and indirect branches out
    // of the arena; every packet field (ip, target, opcode, outcome,
    // instruction gap) must survive SBBT -> decoded arena -> SBBT-A
    // sidecar byte-identically for the non-conditional classes too.
    const std::string path = mixedClassTrace();
    sbbt::SbbtReader reader(path);
    ASSERT_TRUE(reader.ok()) << reader.error();
    const std::vector<sbbt::PacketData> expected = drain(reader);
    ASSERT_GT(expected.size(), 0u);

    // The stream genuinely covers every class.
    std::array<std::uint64_t, frontend::kNumBranchClasses> seen{};
    for (const sbbt::PacketData &packet : expected)
        ++seen[static_cast<std::size_t>(
            frontend::classify(packet.branch.opcode()))];
    for (std::size_t cls = 0; cls < seen.size(); ++cls)
        EXPECT_GT(seen[cls], 0u)
            << "class "
            << frontend::className(static_cast<frontend::BranchClass>(cls))
            << " missing from the fixture stream";

    std::string error;
    auto decoded = sbbt::MemTrace::load(path, {}, &error);
    ASSERT_NE(decoded, nullptr) << error;
    const std::string sidecar =
        mbp::test::tempDir() + "/arena_conformance_mixed.sbbta";
    ASSERT_TRUE(decoded->writeArena(sidecar, 0, &error)) << error;
    auto mapped = sbbt::MemTrace::mapFile(sidecar, &error);
    ASSERT_NE(mapped, nullptr) << error;

    for (const auto &arena : {decoded, mapped}) {
        ASSERT_EQ(arena->size(), expected.size());
        std::uint64_t previous_instr = 0;
        for (std::size_t i = 0; i < expected.size(); ++i) {
            const Branch actual{arena->ip(i), arena->target(i),
                                arena->opcode(i), arena->taken(i)};
            EXPECT_EQ(actual, expected[i].branch)
                << (arena->mapped() ? "mapped" : "decoded")
                << " packet " << i;
            EXPECT_EQ(arena->instrNumber(i) - previous_instr - 1,
                      expected[i].instr_gap)
                << (arena->mapped() ? "mapped" : "decoded")
                << " packet " << i;
            previous_instr = arena->instrNumber(i);
        }
    }
    std::remove(sidecar.c_str());
}

TEST_F(ArenaConformanceTest, FrontendReportIsSourceInvariant)
{
    // The front-end simulation is held to the same source-invariance bar
    // as the conditional pipeline: streaming, decoded arena and mapped
    // SBBT-A runs must report identical documents modulo timing.
    const std::string path = mixedClassTrace();
    std::string error;
    auto decoded = sbbt::MemTrace::load(path, {}, &error);
    ASSERT_NE(decoded, nullptr) << error;
    const std::string sidecar =
        mbp::test::tempDir() + "/arena_conformance_mixed_fe.sbbta";
    ASSERT_TRUE(decoded->writeArena(sidecar, 0, &error)) << error;
    auto mapped = sbbt::MemTrace::mapFile(sidecar, &error);
    ASSERT_NE(mapped, nullptr) << error;

    frontend::FrontEndConfig config;
    config.corrupt_on_mispredict = true;

    SimArgs streaming_args;
    streaming_args.trace_path = path;
    streaming_args.warmup_instr = 500;
    SimArgs decoded_args = streaming_args;
    decoded_args.preloaded = decoded;
    SimArgs mapped_args = streaming_args;
    mapped_args.preloaded = mapped;

    frontend::FrontEnd streaming_fe(pred::makeByName("gshare"), config);
    frontend::FrontEnd decoded_fe(pred::makeByName("gshare"), config);
    frontend::FrontEnd mapped_fe(pred::makeByName("gshare"), config);
    json_t streaming = frontend::simulate(streaming_fe, streaming_args);
    json_t decoded_doc = frontend::simulate(decoded_fe, decoded_args);
    json_t mapped_doc = frontend::simulate(mapped_fe, mapped_args);
    ASSERT_FALSE(streaming.contains("error")) << streaming.dump(2);
    ASSERT_FALSE(decoded_doc.contains("error")) << decoded_doc.dump(2);
    ASSERT_FALSE(mapped_doc.contains("error")) << mapped_doc.dump(2);
    EXPECT_EQ(scrubTiming(streaming).dump(2),
              scrubTiming(decoded_doc).dump(2));
    EXPECT_EQ(scrubTiming(decoded_doc).dump(2),
              scrubTiming(mapped_doc).dump(2));
    std::remove(sidecar.c_str());
}

TEST_F(ArenaConformanceTest, FusedStreamingFallbackMatchesVirtual)
{
    // When the run resolves to the streaming reader the fused entry
    // points run the shared streaming core; results must still be
    // identical to the virtual streaming pipeline.
    auto virtual_pred = pred::makeByName("gshare");

    SimArgs args = baseArgs();
    args.in_memory = false;

    std::string virtual_bytes, fused_bytes;
    json_t virtual_doc = run(*virtual_pred, args, virtual_bytes);
    json_t fused_doc = runFused("gshare", args, fused_bytes);

    EXPECT_EQ(virtual_bytes, fused_bytes);
    EXPECT_EQ(scrubTiming(virtual_doc).dump(2),
              scrubTiming(fused_doc).dump(2));
}
