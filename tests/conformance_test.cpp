/**
 * @file
 * Lockstep cross-format conformance: one tracegen workload, rendered to
 * all three trace formats of the suite (SBBT, BTT, champsim-lite), must
 * produce *byte-identical* prediction streams through simulate() — not
 * merely equal MPKI. The BTT and champsim renderings are decoded back with
 * their own readers and re-materialized as SBBT, so the whole
 * format-adapter path is under test, and the comparison happens at the
 * finest observable granularity: the per-branch prediction byte captured
 * with SimArgs::prediction_hook.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cbp5/trace.hpp"
#include "champsim/trace.hpp"
#include "champsim/trace_synth.hpp"
#include "mbp/predictors/bimodal.hpp"
#include "mbp/predictors/gshare.hpp"
#include "mbp/sim/simulator.hpp"
#include "mbp/testkit/oracle.hpp"
#include "mbp/tracegen/generator.hpp"
#include "test_tmp.hpp"

using namespace mbp;
using testkit::Events;

namespace
{

std::string
tempPath(const std::string &name)
{
    return mbp::test::tempDir() + "/" + name;
}

/** The shared workload: realistic, with calls/returns and noise. */
Events
workload()
{
    tracegen::WorkloadSpec spec;
    spec.seed = 20260805;
    spec.num_instr = 120'000;
    spec.num_functions = 8;
    spec.noise_fraction = 0.15;
    return tracegen::generateAll(spec);
}

/** Renders @p events through the BTT writer/reader pair. */
Events
throughBtt(const Events &events)
{
    const std::string path = tempPath("conformance.btt");
    cbp5::BttWriter writer(path);
    for (const auto &ev : events)
        writer.append(ev.branch, ev.instr_gap);
    EXPECT_TRUE(writer.close()) << writer.error();
    cbp5::BttReader reader(path);
    EXPECT_TRUE(reader.ok()) << reader.error();
    Events decoded;
    cbp5::EdgeInfo edge;
    while (reader.next(edge))
        decoded.push_back({edge.branch, edge.instr_gap});
    EXPECT_EQ(reader.error(), "");
    return decoded;
}

/** Renders @p events through the champsim-lite writer/reader pair. */
Events
throughChampsim(const Events &events)
{
    const std::string path = tempPath("conformance.champsim");
    champsim::TraceWriter writer(path);
    champsim::SyntheticTraceBuilder builder(writer, {});
    for (const auto &ev : events)
        EXPECT_TRUE(builder.append(ev.branch, ev.instr_gap));
    EXPECT_TRUE(writer.close()) << writer.error();
    champsim::TraceReader reader(path);
    EXPECT_TRUE(reader.ok()) << reader.error();
    Events decoded;
    champsim::TraceInstr instr;
    std::uint32_t gap = 0;
    while (reader.next(instr)) {
        if (!instr.is_branch) {
            ++gap;
            continue;
        }
        decoded.push_back({Branch{instr.ip, instr.branch_target,
                                  instr.branch_opcode, instr.branch_taken},
                           gap});
        gap = 0;
    }
    EXPECT_EQ(reader.error(), "");
    return decoded;
}

/** One simulate() run capturing the per-branch prediction bytes. */
std::string
predictionStream(Predictor &predictor, const std::string &trace,
                 std::uint64_t &mispredictions)
{
    SimArgs args;
    args.trace_path = trace;
    args.collect_most_failed = false;
    std::string bytes;
    args.prediction_hook = [&](const Branch &, bool predicted,
                               std::uint64_t, bool) {
        bytes.push_back(predicted ? 'T' : 'N');
    };
    json_t result = simulate(predictor, args);
    EXPECT_FALSE(result.contains("error")) << result.dump(2);
    mispredictions =
        result.find("metrics")->find("mispredictions")->asUint();
    return bytes;
}

} // namespace

TEST(Conformance, AllFormatsProduceByteIdenticalPredictionStreams)
{
    const Events events = workload();
    ASSERT_GT(events.size(), 1000u);

    // Render the one workload three ways, each through its own adapter.
    const std::string direct = tempPath("conformance-direct.sbbt");
    ASSERT_EQ("", testkit::writeSbbtFile(events, direct));
    const std::string via_btt = tempPath("conformance-via-btt.sbbt");
    ASSERT_EQ("", testkit::writeSbbtFile(throughBtt(events), via_btt));
    const std::string via_champsim =
        tempPath("conformance-via-champsim.sbbt");
    ASSERT_EQ("",
              testkit::writeSbbtFile(throughChampsim(events), via_champsim));

    const std::vector<std::pair<const char *, std::string>> renderings = {
        {"sbbt", direct},
        {"btt", via_btt},
        {"champsim", via_champsim},
    };

    // Bimodal and GShare: prediction streams must match byte for byte.
    for (int predictor_kind = 0; predictor_kind < 2; ++predictor_kind) {
        std::string baseline;
        std::uint64_t baseline_misses = 0;
        for (const auto &[format, path] : renderings) {
            std::uint64_t misses = 0;
            std::string stream;
            if (predictor_kind == 0) {
                pred::Bimodal<16> predictor;
                stream = predictionStream(predictor, path, misses);
            } else {
                pred::Gshare<15, 17> predictor;
                stream = predictionStream(predictor, path, misses);
            }
            ASSERT_GT(stream.size(), 0u) << format;
            if (baseline.empty()) {
                baseline = stream;
                baseline_misses = misses;
                continue;
            }
            EXPECT_EQ(baseline.size(), stream.size()) << format;
            EXPECT_TRUE(baseline == stream)
                << (predictor_kind == 0 ? "Bimodal" : "GShare")
                << " prediction stream through " << format
                << " diverged from the direct SBBT rendering";
            EXPECT_EQ(baseline_misses, misses) << format;
        }
    }
}
