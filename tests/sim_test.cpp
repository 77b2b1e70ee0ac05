/**
 * @file
 * Tests for the simulation library: output schema (paper Listing 1),
 * metric arithmetic, warm-up semantics, train/track call discipline, the
 * comparison simulator, and the §II analytic model.
 */
#include "mbp/sim/simulator.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <utility>
#include <vector>

#include "mbp/frontend/frontend.hpp"
#include "mbp/sbbt/writer.hpp"
#include "mbp/sim/detail/sim_core.hpp"
#include "test_tmp.hpp"

using namespace mbp;

namespace
{

std::string
tempPath(const std::string &name)
{
    return mbp::test::tempDir() + "/" + name;
}

Branch
cond(std::uint64_t ip, bool taken)
{
    return Branch{ip, 0x9000, OpCode::condJump(), taken};
}

/** Writes a raw SBBT trace from a list of (branch, gap) events. */
std::string
writeTrace(const std::string &name,
           const std::vector<std::pair<Branch, std::uint32_t>> &events)
{
    std::string path = tempPath(name);
    sbbt::SbbtWriter writer(path);
    EXPECT_TRUE(writer.ok()) << writer.error();
    for (const auto &[b, gap] : events)
        EXPECT_TRUE(writer.append(b, gap));
    EXPECT_TRUE(writer.close()) << writer.error();
    return path;
}

/** Scripted predictor: predicts a fixed sequence, records every call. */
class ScriptedPredictor : public Predictor
{
  public:
    explicit ScriptedPredictor(std::vector<bool> script)
        : script_(std::move(script))
    {}

    bool
    predict(std::uint64_t ip) override
    {
        predict_ips.push_back(ip);
        bool p = script_.empty() ? true : script_[pos_ % script_.size()];
        ++pos_;
        return p;
    }

    void
    train(const Branch &b) override
    {
        trained.push_back(b);
        EXPECT_TRUE(b.isConditional())
            << "simulator must train only conditional branches";
    }

    void track(const Branch &b) override { tracked.push_back(b); }

    json_t
    metadata_stats() const override
    {
        return json_t::object({{"name", "scripted"}});
    }

    json_t
    execution_stats() const override
    {
        return json_t::object({{"calls", std::uint64_t(pos_)}});
    }

    std::vector<std::uint64_t> predict_ips;
    std::vector<Branch> trained;
    std::vector<Branch> tracked;

  private:
    std::vector<bool> script_;
    std::size_t pos_ = 0;
};

} // namespace

TEST(Simulate, OutputSchemaMatchesListing1)
{
    auto path = writeTrace("schema.sbbt", {
        {cond(0x1000, true), 3},
        {Branch{0x1010, 0x2000, OpCode::call(), true}, 2},
        {cond(0x1020, false), 1},
    });
    ScriptedPredictor pred({true});
    SimArgs args;
    args.trace_path = path;
    json_t result = simulate(pred, args);

    ASSERT_TRUE(result.contains("metadata"));
    ASSERT_TRUE(result.contains("metrics"));
    ASSERT_TRUE(result.contains("predictor_statistics"));
    ASSERT_TRUE(result.contains("most_failed"));

    const json_t &md = *result.find("metadata");
    EXPECT_EQ(md.find("simulator")->asString(), "MBPlib std simulator");
    EXPECT_EQ(md.find("version")->asString(), kMbpVersion);
    EXPECT_EQ(md.find("trace")->asString(), path);
    EXPECT_EQ(md.find("warmup_instr")->asUint(), 0u);
    EXPECT_TRUE(md.find("exhausted_trace")->asBool());
    EXPECT_EQ(md.find("num_conditonal_branches"), nullptr)
        << "we spell it correctly";
    EXPECT_EQ(md.find("num_conditional_branches")->asUint(), 2u);
    EXPECT_EQ(md.find("num_branch_instructions")->asUint(), 3u);
    EXPECT_EQ(md.find("predictor")->find("name")->asString(), "scripted");

    const json_t &metrics = *result.find("metrics");
    EXPECT_TRUE(metrics.contains("mpki"));
    EXPECT_TRUE(metrics.contains("mispredictions"));
    EXPECT_TRUE(metrics.contains("accuracy"));
    EXPECT_TRUE(metrics.contains("num_most_failed_branches"));
    EXPECT_TRUE(metrics.contains("simulation_time"));
    EXPECT_TRUE(metrics.contains("branches_per_second"));
    EXPECT_TRUE(metrics.contains("decompressed_bytes"));
    EXPECT_TRUE(metrics.contains("prefetch_stall_seconds"));
    // Header + 3 packets went through the decoder.
    EXPECT_EQ(metrics.find("decompressed_bytes")->asUint(),
              sbbt::kHeaderSize + 3 * sbbt::kPacketSize);
    EXPECT_EQ(result.find("predictor_statistics")->find("calls")->asUint(),
              2u);
    std::remove(path.c_str());
}

TEST(Simulate, MetricArithmetic)
{
    // 10 conditional branches, gaps of 9 -> 100 instructions total.
    std::vector<std::pair<Branch, std::uint32_t>> events;
    for (int i = 0; i < 10; ++i)
        events.push_back({cond(0x1000 + 16 * (i % 2), i % 3 == 0), 9});
    auto path = writeTrace("arith.sbbt", events);
    // Predictor always says taken; outcomes: i%3==0 -> taken (4 of 10).
    ScriptedPredictor pred({true});
    SimArgs args;
    args.trace_path = path;
    json_t result = simulate(pred, args);
    const json_t &metrics = *result.find("metrics");
    EXPECT_EQ(metrics.find("mispredictions")->asUint(), 6u);
    EXPECT_DOUBLE_EQ(metrics.find("mpki")->asDouble(), 6.0 / (100.0 / 1000));
    EXPECT_DOUBLE_EQ(metrics.find("accuracy")->asDouble(), 0.4);
    EXPECT_EQ(result.find("metadata")->find("simulation_instr")->asUint(),
              100u);
    std::remove(path.c_str());
}

TEST(Simulate, TrainBeforeTrackAndTrackForAll)
{
    auto path = writeTrace("order.sbbt", {
        {cond(0x1000, true), 0},
        {Branch{0x1010, 0x2000, OpCode::jump(), true}, 0},
        {cond(0x1020, false), 0},
        {Branch{0x1030, 0x2000, OpCode::ret(), true}, 0},
    });
    ScriptedPredictor pred({true});
    SimArgs args;
    args.trace_path = path;
    simulate(pred, args);
    EXPECT_EQ(pred.trained.size(), 2u) << "train only conditionals";
    EXPECT_EQ(pred.tracked.size(), 4u) << "track everything";
    std::remove(path.c_str());
}

TEST(Simulate, TrackOnlyConditionalOption)
{
    auto path = writeTrace("trackcond.sbbt", {
        {cond(0x1000, true), 0},
        {Branch{0x1010, 0x2000, OpCode::jump(), true}, 0},
    });
    ScriptedPredictor pred({true});
    SimArgs args;
    args.trace_path = path;
    args.track_only_conditional = true;
    json_t result = simulate(pred, args);
    EXPECT_EQ(pred.tracked.size(), 1u);
    EXPECT_TRUE(result.find("metadata")
                    ->find("track_only_conditional")
                    ->asBool());
    std::remove(path.c_str());
}

TEST(Simulate, WarmupExcludesMispredictions)
{
    // 20 conditionals, 10 instructions each; all not-taken while the
    // predictor says taken -> every one mispredicts.
    std::vector<std::pair<Branch, std::uint32_t>> events;
    for (int i = 0; i < 20; ++i)
        events.push_back({cond(0x1000, false), 9});
    auto path = writeTrace("warmup.sbbt", events);
    ScriptedPredictor pred({true});
    SimArgs args;
    args.trace_path = path;
    args.warmup_instr = 100; // first 10 branches are warm-up
    json_t result = simulate(pred, args);
    EXPECT_EQ(result.find("metrics")->find("mispredictions")->asUint(), 10u);
    EXPECT_EQ(result.find("metadata")->find("simulation_instr")->asUint(),
              100u);
    EXPECT_EQ(result.find("metadata")
                  ->find("num_conditional_branches")
                  ->asUint(),
              10u);
    // But the predictor was trained through the whole trace.
    EXPECT_EQ(pred.trained.size(), 20u);
    std::remove(path.c_str());
}

TEST(Simulate, SimInstrBudgetStopsEarly)
{
    std::vector<std::pair<Branch, std::uint32_t>> events;
    for (int i = 0; i < 100; ++i)
        events.push_back({cond(0x1000, false), 9});
    auto path = writeTrace("budget.sbbt", events);
    ScriptedPredictor pred({true});
    SimArgs args;
    args.trace_path = path;
    args.sim_instr = 250;
    json_t result = simulate(pred, args);
    EXPECT_FALSE(result.find("metadata")->find("exhausted_trace")->asBool());
    EXPECT_EQ(result.find("metrics")->find("mispredictions")->asUint(), 25u);
    EXPECT_LE(result.find("metadata")->find("simulation_instr")->asUint(),
              250u);
    std::remove(path.c_str());
}

TEST(Simulate, MostFailedRankingAndHalfRule)
{
    // Branch A mispredicts 6 times, B 3 times, C 1 time (10 total).
    // Half = 5 -> A alone accounts for it -> num_most_failed_branches = 1.
    std::vector<std::pair<Branch, std::uint32_t>> events;
    for (int i = 0; i < 6; ++i)
        events.push_back({cond(0xa000, false), 0});
    for (int i = 0; i < 3; ++i)
        events.push_back({cond(0xb000, false), 0});
    events.push_back({cond(0xc000, false), 0});
    // Plus correctly predicted executions so accuracy varies.
    for (int i = 0; i < 4; ++i)
        events.push_back({cond(0xa000, true), 0});
    auto path = writeTrace("ranking.sbbt", events);
    ScriptedPredictor pred({true});
    SimArgs args;
    args.trace_path = path;
    json_t result = simulate(pred, args);
    EXPECT_EQ(result.find("metrics")
                  ->find("num_most_failed_branches")
                  ->asUint(),
              1u);
    const json_t &most_failed = *result.find("most_failed");
    ASSERT_EQ(most_failed.size(), 1u);
    EXPECT_EQ(most_failed[0].find("ip")->asUint(), 0xa000u);
    EXPECT_EQ(most_failed[0].find("occurrences")->asUint(), 10u);
    EXPECT_DOUBLE_EQ(most_failed[0].find("accuracy")->asDouble(), 0.4);
    std::remove(path.c_str());
}

TEST(Simulate, BlockedPrefetchMatchesPacketPath)
{
    // The block-decoded, prefetching default pipeline must produce results
    // bit-identical to the seed packet-at-a-time reader — everything but
    // the wall-clock fields.
    std::vector<std::pair<Branch, std::uint32_t>> events;
    for (int i = 0; i < 5000; ++i)
        events.push_back({cond(0x1000 + 16 * (i % 7), i % 3 == 0),
                          std::uint32_t(i % 5)});
    std::uint64_t instr = 0;
    for (const auto &[b, gap] : events)
        instr += gap + 1;
    std::string path = tempPath("pipe.sbbt.gz");
    {
        sbbt::Header h;
        h.instruction_count = instr;
        h.branch_count = events.size();
        sbbt::SbbtWriter writer(path, h);
        ASSERT_TRUE(writer.ok()) << writer.error();
        for (const auto &[b, gap] : events)
            ASSERT_TRUE(writer.append(b, gap));
        ASSERT_TRUE(writer.close()) << writer.error();
    }

    SimArgs seed_args;
    seed_args.trace_path = path;
    seed_args.reader_block_packets = 1;
    seed_args.prefetch = false;
    ScriptedPredictor seed_pred({true, false, true});
    json_t seed = simulate(seed_pred, seed_args);

    SimArgs piped_args; // defaults: blocked decode + prefetch thread
    piped_args.trace_path = path;
    ScriptedPredictor piped_pred({true, false, true});
    json_t piped = simulate(piped_pred, piped_args);

    ASSERT_TRUE(seed.contains("metrics")) << seed.dump(2);
    ASSERT_TRUE(piped.contains("metrics")) << piped.dump(2);
    for (const char *field : {"mpki", "mispredictions", "accuracy",
                              "num_most_failed_branches",
                              "decompressed_bytes"}) {
        ASSERT_NE(seed.find("metrics")->find(field), nullptr) << field;
        ASSERT_NE(piped.find("metrics")->find(field), nullptr) << field;
        EXPECT_TRUE(*seed.find("metrics")->find(field) ==
                    *piped.find("metrics")->find(field))
            << field;
    }
    EXPECT_TRUE(*seed.find("most_failed") == *piped.find("most_failed"));
    EXPECT_TRUE(*seed.find("metadata") == *piped.find("metadata"));
    std::remove(path.c_str());
}

TEST(Simulate, TruncatedTraceReportsErrorAllCodecs)
{
    std::vector<std::pair<Branch, std::uint32_t>> events;
    for (int i = 0; i < 4000; ++i)
        events.push_back({cond(0x1000 + 16 * (i % 5), i % 2 == 0), 2});
    std::uint64_t instr = 0;
    for (const auto &[b, gap] : events)
        instr += gap + 1;
    for (const char *name : {"cut.sbbt", "cut.sbbt.gz", "cut.sbbt.flz"}) {
        std::string path = tempPath(name);
        {
            sbbt::Header h;
            h.instruction_count = instr;
            h.branch_count = events.size();
            sbbt::SbbtWriter writer(path, h);
            ASSERT_TRUE(writer.ok()) << writer.error();
            for (const auto &[b, gap] : events)
                ASSERT_TRUE(writer.append(b, gap));
            ASSERT_TRUE(writer.close()) << writer.error();
        }
        std::filesystem::resize_file(
            path, std::filesystem::file_size(path) * 3 / 5);
        ScriptedPredictor pred({true});
        SimArgs args;
        args.trace_path = path;
        json_t result = simulate(pred, args);
        EXPECT_TRUE(result.contains("error")) << name;
        EXPECT_FALSE(result.contains("metrics")) << name;
        std::remove(path.c_str());
    }
}

TEST(Simulate, MissingTraceReportsError)
{
    ScriptedPredictor pred({true});
    SimArgs args;
    args.trace_path = "/nonexistent/missing.sbbt";
    json_t result = simulate(pred, args);
    ASSERT_TRUE(result.contains("error"));
    EXPECT_FALSE(result.contains("metrics"));
}

TEST(Simulate, StorageBitsDistinguishesUnreportedFromZeroCost)
{
    auto path = writeTrace("storage.sbbt", {{cond(0x1000, true), 1}});
    SimArgs args;
    args.trace_path = path;

    // ScriptedPredictor keeps the silent base-class default: the report
    // says so with an explicit null, not a fake 0.
    ScriptedPredictor unreported({true});
    json_t result = simulate(unreported, args);
    EXPECT_TRUE(result["metadata"]["predictor"]["storage_bits"].isNull());

    // A declared-empty inventory is a genuine 0-bit design.
    class ZeroCost : public ScriptedPredictor
    {
      public:
        ZeroCost() : ScriptedPredictor({true}) {}
        std::optional<ComponentInfo>
        storage_components() const override
        {
            return ComponentInfo::composite("zero", {});
        }
    };
    ZeroCost zero_cost;
    json_t zero_result = simulate(zero_cost, args);
    json_t &bits = zero_result["metadata"]["predictor"]["storage_bits"];
    EXPECT_FALSE(bits.isNull());
    EXPECT_EQ(bits.asUint(), 0u);
    std::remove(path.c_str());
}

TEST(Simulate, OutputIsValidJson)
{
    auto path = writeTrace("jsonok.sbbt", {{cond(0x1000, true), 5}});
    ScriptedPredictor pred({true});
    SimArgs args;
    args.trace_path = path;
    json_t result = simulate(pred, args);
    auto reparsed = json_t::parse(result.dump(2));
    ASSERT_TRUE(reparsed.has_value());
    EXPECT_EQ(*reparsed, result);
    std::remove(path.c_str());
}

TEST(Compare, RanksByMispredictionDifference)
{
    // Outcomes alternate at A (both wrong half the time); at B outcomes are
    // always taken, so the always-taken predictor is perfect and the
    // always-not-taken one always wrong.
    std::vector<std::pair<Branch, std::uint32_t>> events;
    for (int i = 0; i < 8; ++i)
        events.push_back({cond(0xb000, true), 1});
    for (int i = 0; i < 6; ++i)
        events.push_back({cond(0xa000, i % 2 == 0), 1});
    auto path = writeTrace("cmp.sbbt", events);
    ScriptedPredictor taken({true});
    ScriptedPredictor not_taken({false});
    SimArgs args;
    args.trace_path = path;
    json_t result = compare(taken, not_taken, args);

    const json_t &metrics = *result.find("metrics");
    EXPECT_EQ(metrics.find("mispredictions_0")->asUint(), 3u);
    EXPECT_EQ(metrics.find("mispredictions_1")->asUint(), 11u);
    const json_t &most_failed = *result.find("most_failed");
    ASSERT_GE(most_failed.size(), 1u);
    EXPECT_EQ(most_failed[0].find("ip")->asUint(), 0xb000u)
        << "largest difference first";
    EXPECT_LT(most_failed[0].find("mpki_diff")->asDouble(), 0.0)
        << "predictor 0 is better at B";
    ASSERT_TRUE(result.find("metadata")->contains("predictor_0"));
    ASSERT_TRUE(result.find("metadata")->contains("predictor_1"));
    std::remove(path.c_str());
}

TEST(Compare, IdenticalPredictorsShowNoDifference)
{
    std::vector<std::pair<Branch, std::uint32_t>> events;
    for (int i = 0; i < 10; ++i)
        events.push_back({cond(0x1000, i % 2 == 0), 1});
    auto path = writeTrace("cmpsame.sbbt", events);
    ScriptedPredictor a({true});
    ScriptedPredictor b({true});
    SimArgs args;
    args.trace_path = path;
    json_t result = compare(a, b, args);
    EXPECT_EQ(result.find("most_failed")->size(), 0u);
    EXPECT_DOUBLE_EQ(result.find("metrics")->find("mpki_0")->asDouble(),
                     result.find("metrics")->find("mpki_1")->asDouble());
    std::remove(path.c_str());
}

TEST(SimulateMany, HonorsCollectMostFailedBothShapes)
{
    // The N-ary document must follow the same SimArgs contract as
    // simulate(): ranking enabled -> a populated most_failed section;
    // disabled -> the key omitted entirely (not empty). Site 0x1000 is
    // always taken, so the two scripted predictors disagree there and
    // the spread ranking has something to report.
    std::vector<std::pair<Branch, std::uint32_t>> events;
    for (int i = 0; i < 12; ++i)
        events.push_back({cond(0x1000 + 16 * (i % 3), i % 3 == 0), 1});
    auto path = writeTrace("many_collect.sbbt", events);
    SimArgs args;
    args.trace_path = path;

    ScriptedPredictor taken_a({true}), not_taken_a({false});
    std::vector<Predictor *> preds_a{&taken_a, &not_taken_a};
    json_t enabled = simulateMany(preds_a, args);
    ASSERT_FALSE(enabled.contains("error")) << enabled.dump(2);
    ASSERT_TRUE(enabled.contains("most_failed"));
    EXPECT_GT(enabled.find("most_failed")->size(), 0u);

    args.collect_most_failed = false;
    ScriptedPredictor taken_b({true}), not_taken_b({false});
    std::vector<Predictor *> preds_b{&taken_b, &not_taken_b};
    json_t disabled = simulateMany(preds_b, args);
    ASSERT_FALSE(disabled.contains("error")) << disabled.dump(2);
    EXPECT_FALSE(disabled.contains("most_failed"));
    EXPECT_FALSE(disabled.find("metrics")
                     ->contains("num_most_failed_branches"));
    // Everything the ranking does not feed is unaffected by the flag.
    EXPECT_TRUE(*enabled.find("metrics")->find("mispredictions_0") ==
                *disabled.find("metrics")->find("mispredictions_0"));
    EXPECT_TRUE(*enabled.find("metrics")->find("mispredictions_1") ==
                *disabled.find("metrics")->find("mispredictions_1"));
    std::remove(path.c_str());
}

TEST(Compare, HonorsCollectMostFailedBothShapes)
{
    std::vector<std::pair<Branch, std::uint32_t>> events;
    for (int i = 0; i < 10; ++i)
        events.push_back({cond(0x2000 + 16 * (i % 2), i % 3 == 0), 1});
    auto path = writeTrace("cmp_collect.sbbt", events);
    SimArgs args;
    args.trace_path = path;

    ScriptedPredictor taken_a({true}), not_taken_a({false});
    json_t enabled = compare(taken_a, not_taken_a, args);
    ASSERT_FALSE(enabled.contains("error")) << enabled.dump(2);
    EXPECT_TRUE(enabled.contains("most_failed"));

    args.collect_most_failed = false;
    ScriptedPredictor taken_b({true}), not_taken_b({false});
    json_t disabled = compare(taken_b, not_taken_b, args);
    ASSERT_FALSE(disabled.contains("error")) << disabled.dump(2);
    EXPECT_FALSE(disabled.contains("most_failed"));
    EXPECT_FALSE(disabled.find("metrics")
                     ->contains("num_most_failed_branches"));
    std::remove(path.c_str());
}

TEST(SimulateMany, InvokesPredictionHookPerPredictor)
{
    // Per conditional branch the hook must fire once per predictor, in
    // ascending index order, carrying that predictor's own guess.
    auto path = writeTrace("many_hook.sbbt", {
        {cond(0x1000, true), 1},
        {Branch{0x1010, 0x2000, OpCode::jump(), true}, 1},
        {cond(0x1020, false), 1},
    });
    ScriptedPredictor taken({true});
    ScriptedPredictor not_taken({false});
    std::vector<Predictor *> preds{&taken, &not_taken};

    std::vector<std::pair<std::size_t, bool>> calls;
    SimArgs args;
    args.trace_path = path;
    args.prediction_hook = [&calls](const Branch &, bool predicted,
                                    std::uint64_t, bool,
                                    std::size_t index) {
        calls.emplace_back(index, predicted);
    };
    json_t result = simulateMany(preds, args);
    ASSERT_FALSE(result.contains("error")) << result.dump(2);
    // 2 conditionals x 2 predictors; the unconditional jump fires none.
    ASSERT_EQ(calls.size(), 4u);
    const std::vector<std::pair<std::size_t, bool>> expected{
        {0, true}, {1, false}, {0, true}, {1, false}};
    EXPECT_EQ(calls, expected);
    std::remove(path.c_str());
}

TEST(SimulateMany, LegacyFourArgHookSeesEveryStream)
{
    auto path = writeTrace("many_hook4.sbbt", {
        {cond(0x1000, true), 1},
        {cond(0x1020, false), 1},
        {cond(0x1040, true), 1},
    });
    ScriptedPredictor taken({true});
    ScriptedPredictor not_taken({false});
    std::vector<Predictor *> preds{&taken, &not_taken};

    std::size_t count = 0;
    SimArgs args;
    args.trace_path = path;
    args.prediction_hook = [&count](const Branch &, bool, std::uint64_t,
                                    bool) { ++count; };
    json_t result = simulateMany(preds, args);
    ASSERT_FALSE(result.contains("error")) << result.dump(2);
    EXPECT_EQ(count, 6u) << "3 conditionals x 2 predictors";
    std::remove(path.c_str());
}

TEST(PredictionHook, FiresAfterTheBlockIsTrainedInEveryEntryPoint)
{
    // One rule for every entry point: the hook fires after the whole
    // block's train/track, so a hook that inspects the predictor sees
    // every branch of the (here: only) block already trained.
    auto path = writeTrace("hook_timing.sbbt", {
        {cond(0x1000, true), 1},
        {Branch{0x1010, 0x2000, OpCode::jump(), true}, 1},
        {cond(0x1020, false), 1},
        {cond(0x1040, true), 1},
    });
    ScriptedPredictor single({true});
    std::vector<std::size_t> seen;
    SimArgs args;
    args.trace_path = path;
    args.prediction_hook = [&](const Branch &, bool, std::uint64_t, bool,
                               std::size_t) {
        seen.push_back(single.trained.size());
    };
    json_t result = simulate(single, args);
    ASSERT_FALSE(result.contains("error")) << result.dump(2);
    EXPECT_EQ(seen, (std::vector<std::size_t>{3, 3, 3}));

    ScriptedPredictor a({true});
    ScriptedPredictor b({false});
    std::vector<std::pair<std::size_t, std::size_t>> seen_many;
    args.prediction_hook = [&](const Branch &, bool, std::uint64_t, bool,
                               std::size_t) {
        seen_many.emplace_back(a.trained.size(), b.trained.size());
    };
    result = simulateMany({&a, &b}, args);
    ASSERT_FALSE(result.contains("error")) << result.dump(2);
    EXPECT_EQ(seen_many,
              (std::vector<std::pair<std::size_t, std::size_t>>(6, {3, 3})));

    // The front end runs on the same driver, under the same rule.
    auto owned = std::make_unique<ScriptedPredictor>(std::vector<bool>{true});
    ScriptedPredictor &inner = *owned;
    frontend::FrontEnd front_end(std::move(owned));
    seen.clear();
    args.prediction_hook = [&](const Branch &, bool, std::uint64_t, bool,
                               std::size_t) {
        seen.push_back(inner.trained.size());
    };
    result = frontend::simulate(front_end, args);
    ASSERT_FALSE(result.contains("error")) << result.dump(2);
    EXPECT_EQ(seen, (std::vector<std::size_t>{3, 3, 3}));

    auto owned_a = std::make_unique<ScriptedPredictor>(std::vector<bool>{true});
    auto owned_b =
        std::make_unique<ScriptedPredictor>(std::vector<bool>{false});
    ScriptedPredictor &inner_a = *owned_a;
    ScriptedPredictor &inner_b = *owned_b;
    frontend::FrontEnd front_a(std::move(owned_a));
    frontend::FrontEnd front_b(std::move(owned_b));
    seen_many.clear();
    std::vector<std::size_t> indices;
    args.prediction_hook = [&](const Branch &, bool, std::uint64_t, bool,
                               std::size_t index) {
        seen_many.emplace_back(inner_a.trained.size(),
                               inner_b.trained.size());
        indices.push_back(index);
    };
    result = frontend::simulateMany({&front_a, &front_b}, args);
    ASSERT_FALSE(result.contains("error")) << result.dump(2);
    EXPECT_EQ(seen_many,
              (std::vector<std::pair<std::size_t, std::size_t>>(6, {3, 3})));
    EXPECT_EQ(indices, (std::vector<std::size_t>{0, 1, 0, 1, 0, 1}));
    std::remove(path.c_str());
}

TEST(PredictionHookAdapter, AdaptsBothSignatures)
{
    PredictionHook empty;
    EXPECT_FALSE(static_cast<bool>(empty));

    std::size_t seen_index = 99;
    PredictionHook canonical = [&seen_index](const Branch &, bool,
                                             std::uint64_t, bool,
                                             std::size_t index) {
        seen_index = index;
    };
    ASSERT_TRUE(static_cast<bool>(canonical));
    canonical(cond(0x1000, true), true, 1, true, 7);
    EXPECT_EQ(seen_index, 7u);

    bool legacy_called = false;
    PredictionHook legacy = [&legacy_called](const Branch &, bool,
                                             std::uint64_t, bool) {
        legacy_called = true;
    };
    ASSERT_TRUE(static_cast<bool>(legacy));
    legacy(cond(0x1000, true), true, 1, true, 3);
    EXPECT_TRUE(legacy_called);
}

TEST(Analytic, PaperMotivationNumbers)
{
    // §II: 1-wide machine resolving at stage 5, 5 MPKI -> CPI 1.02; with
    // 4 MPKI -> 1.016. 4-wide at stage 11: 0.3 and 0.29.
    EXPECT_DOUBLE_EQ(analyticCpi(1, 5, 5.0), 1.02);
    EXPECT_DOUBLE_EQ(analyticCpi(1, 5, 4.0), 1.016);
    EXPECT_DOUBLE_EQ(analyticCpi(4, 11, 5.0), 0.30);
    EXPECT_DOUBLE_EQ(analyticCpi(4, 11, 4.0), 0.29);
    EXPECT_NEAR(analyticSpeedup(1, 5, 5.0, 4.0), 1.004, 0.0005);
    EXPECT_NEAR(analyticSpeedup(4, 11, 5.0, 4.0), 1.034, 0.0005);
}
