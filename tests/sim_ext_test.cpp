/**
 * @file
 * Tests for the extended simulation APIs: the stats-collection switch
 * and compare()'s warmup/limit accounting.
 */
#include "mbp/sim/simulator.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "mbp/predictors/bimodal.hpp"
#include "mbp/predictors/gshare.hpp"
#include "mbp/sbbt/writer.hpp"
#include "mbp/tracegen/generator.hpp"
#include "test_tmp.hpp"

using namespace mbp;

namespace
{

std::string
writeTrace(const std::string &name, std::uint64_t seed,
           std::uint64_t num_instr)
{
    std::string path = mbp::test::tempDir() + "/" + name;
    tracegen::WorkloadSpec spec;
    spec.seed = seed;
    spec.num_instr = num_instr;
    sbbt::SbbtWriter writer(path);
    tracegen::TraceGenerator gen(spec);
    tracegen::TraceEvent ev;
    while (gen.next(ev))
        EXPECT_TRUE(writer.append(ev.branch, ev.instr_gap));
    EXPECT_TRUE(writer.close()) << writer.error();
    return path;
}

} // namespace

TEST(CollectMostFailed, DisablingDropsRankingButKeepsMetrics)
{
    std::string path = writeTrace("nostats.sbbt", 11, 300'000);
    pred::Gshare<12, 14> with_stats;
    pred::Gshare<12, 14> without_stats;
    SimArgs args;
    args.trace_path = path;
    json_t full = simulate(with_stats, args);
    args.collect_most_failed = false;
    json_t lean = simulate(without_stats, args);

    // Identical core metrics...
    EXPECT_EQ(full.find("metrics")->find("mispredictions")->asUint(),
              lean.find("metrics")->find("mispredictions")->asUint());
    EXPECT_DOUBLE_EQ(full.find("metrics")->find("mpki")->asDouble(),
                     lean.find("metrics")->find("mpki")->asDouble());
    // ...but no ranking work was done: the ranking-derived fields are
    // omitted entirely instead of reported as a misleading hard zero.
    EXPECT_GT(full.find("most_failed")->size(), 0u);
    EXPECT_TRUE(full.find("metrics")->contains("num_most_failed_branches"));
    EXPECT_FALSE(lean.contains("most_failed"));
    EXPECT_FALSE(lean.find("metrics")->contains("num_most_failed_branches"));
    std::remove(path.c_str());
}

TEST(Compare, MatchesIndependentSimulateRunsWithWarmup)
{
    // Regression guard for the warmup/limit accounting that simulate()
    // and compare() must share: with a nonzero warmup, compare()'s
    // per-predictor numbers must equal two independent simulate() runs
    // over the same trace. Before the accounting was factored into
    // shared helpers it was duplicated in both loops, and any future
    // edit to one copy but not the other shows up here.
    std::string path = writeTrace("compare_warmup.sbbt", 4242, 400'000);
    SimArgs args;
    args.trace_path = path;
    args.warmup_instr = 120'000;
    args.sim_instr = 200'000;

    pred::Bimodal<14> cmp_a;
    pred::Gshare<12, 14> cmp_b;
    json_t both = compare(cmp_a, cmp_b, args);
    ASSERT_FALSE(both.contains("error"));

    pred::Bimodal<14> solo_a;
    pred::Gshare<12, 14> solo_b;
    json_t only_a = simulate(solo_a, args);
    json_t only_b = simulate(solo_b, args);

    const json_t &cm = *both.find("metrics");
    EXPECT_EQ(cm.find("mispredictions_0")->asUint(),
              only_a.find("metrics")->find("mispredictions")->asUint());
    EXPECT_EQ(cm.find("mispredictions_1")->asUint(),
              only_b.find("metrics")->find("mispredictions")->asUint());
    EXPECT_DOUBLE_EQ(cm.find("mpki_0")->asDouble(),
                     only_a.find("metrics")->find("mpki")->asDouble());
    EXPECT_DOUBLE_EQ(cm.find("mpki_1")->asDouble(),
                     only_b.find("metrics")->find("mpki")->asDouble());
    EXPECT_DOUBLE_EQ(cm.find("accuracy_0")->asDouble(),
                     only_a.find("metrics")->find("accuracy")->asDouble());

    // All three runs report the same measured-instruction window.
    std::uint64_t window =
        both.find("metadata")->find("simulation_instr")->asUint();
    EXPECT_EQ(window,
              only_a.find("metadata")->find("simulation_instr")->asUint());
    EXPECT_EQ(window,
              only_b.find("metadata")->find("simulation_instr")->asUint());
    EXPECT_EQ(window, args.sim_instr);
    std::remove(path.c_str());
}

TEST(Compare, WarmupWindowPastEndOfTraceClampsToZero)
{
    // Degenerate accounting case both simulators must agree on: warmup
    // longer than the whole trace means nothing is measured.
    std::string path = writeTrace("compare_overlong.sbbt", 4343, 100'000);
    SimArgs args;
    args.trace_path = path;
    args.warmup_instr = 10'000'000;

    pred::Bimodal<12> a, b, solo;
    json_t both = compare(a, b, args);
    json_t alone = simulate(solo, args);
    EXPECT_EQ(both.find("metadata")->find("simulation_instr")->asUint(), 0u);
    EXPECT_EQ(alone.find("metadata")->find("simulation_instr")->asUint(),
              0u);
    EXPECT_EQ(both.find("metrics")->find("mispredictions_0")->asUint(), 0u);
    EXPECT_EQ(alone.find("metrics")->find("mispredictions")->asUint(), 0u);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Golden determinism guard
// ---------------------------------------------------------------------

TEST(Golden, PinnedWorkloadAndPredictorResults)
{
    // Pins the exact misprediction counts of two predictors on a fixed
    // synthetic workload. This is a tripwire for *unintended* behavior
    // changes in the generator, the trace pipeline or the predictors: if
    // you change any of them deliberately, re-run and update the pinned
    // numbers (they are not meaningful in themselves).
    std::string path = writeTrace("golden.sbbt", 20260705, 500'000);
    auto run = [&](Predictor &p) {
        SimArgs args;
        args.trace_path = path;
        json_t r = simulate(p, args);
        return r.find("metrics")->find("mispredictions")->asUint();
    };
    pred::Bimodal<14> bimodal;
    pred::Gshare<12, 14> gshare;
    std::uint64_t bimodal_misp = run(bimodal);
    std::uint64_t gshare_misp = run(gshare);
    // Determinism: identical re-runs.
    pred::Bimodal<14> bimodal2;
    pred::Gshare<12, 14> gshare2;
    EXPECT_EQ(run(bimodal2), bimodal_misp);
    EXPECT_EQ(run(gshare2), gshare_misp);
    // Golden values (update deliberately, never to silence a failure you
    // do not understand):
    EXPECT_EQ(bimodal_misp, 10720u);
    EXPECT_EQ(gshare_misp, 7901u);
    std::remove(path.c_str());
}
