/**
 * @file
 * Tests for the parallel sweep subsystem: the thread-pool primitive, the
 * campaign runner (grid order, serial equivalence, failure isolation,
 * aggregates), the JSON spec parser and the CSV flattener. The whole
 * file is also the concurrency workout for the MBP_SANITIZE=thread
 * configuration: every campaign here runs multi-threaded.
 */
#include "mbp/sweep/sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>

#include "mbp/frontend/frontend.hpp"
#include "mbp/predictors/bimodal.hpp"
#include "mbp/predictors/gshare.hpp"
#include "mbp/predictors/roster.hpp"
#include "mbp/sbbt/arena_store.hpp"
#include "mbp/sbbt/format.hpp"
#include "mbp/sbbt/writer.hpp"
#include "mbp/tracegen/generator.hpp"
#include "test_tmp.hpp"

using namespace mbp;
using sweep::rosterSpec;

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

TEST(ParallelFor, VisitsEveryIndexExactlyOnce)
{
    constexpr std::size_t kN = 1000;
    std::vector<std::atomic<int>> visits(kN);
    sweep::parallelFor(kN, 8, [&](std::size_t i) {
        visits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kN; ++i)
        EXPECT_EQ(visits[i].load(), 1) << i;
}

TEST(ParallelFor, DegenerateSizes)
{
    int calls = 0;
    sweep::parallelFor(0, 4, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    sweep::parallelFor(1, 4, [&](std::size_t i) {
        EXPECT_EQ(i, 0u);
        ++calls;
    });
    EXPECT_EQ(calls, 1);
    // jobs == 0 resolves to hardware concurrency and still works.
    std::atomic<int> parallel_calls{0};
    sweep::parallelFor(16, 0, [&](std::size_t) {
        parallel_calls.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(parallel_calls.load(), 16);
}

TEST(ParallelFor, ActuallyUsesMultipleThreads)
{
    std::set<std::thread::id> ids;
    std::mutex mutex;
    sweep::parallelFor(64, 4, [&](std::size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        std::lock_guard<std::mutex> guard(mutex);
        ids.insert(std::this_thread::get_id());
    });
    EXPECT_GT(ids.size(), 1u);
}

class SweepTest : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        traces_ = {
            writeTrace("sweep_a.sbbt", 301, 150'000),
            writeTrace("sweep_b.sbbt", 302, 200'000),
            writeTrace("sweep_c.sbbt", 303, 120'000),
        };
    }

    void
    TearDown() override
    {
        for (const auto &t : traces_)
            std::remove(t.c_str());
    }

    std::vector<std::string> traces_;
};

TEST_F(SweepTest, GridOrderIsDeterministicPredictorMajor)
{
    sweep::Campaign campaign;
    campaign.predictors = {rosterSpec("bimodal"), rosterSpec("gshare")};
    campaign.traces = traces_;
    json_t result = sweep::run(campaign, 4);

    const json_t &md = *result.find("metadata");
    EXPECT_EQ(md.find("num_predictors")->asUint(), 2u);
    EXPECT_EQ(md.find("num_traces")->asUint(), 3u);
    EXPECT_EQ(md.find("num_cells")->asUint(), 6u);
    EXPECT_EQ(md.find("jobs")->asUint(), 4u);

    const json_t &cells = *result.find("cells");
    ASSERT_EQ(cells.size(), 6u);
    for (std::size_t i = 0; i < 6; ++i) {
        EXPECT_EQ(cells[i].find("predictor")->asString(),
                  i < 3 ? "bimodal" : "gshare")
            << i;
        EXPECT_EQ(cells[i].find("trace")->asString(), traces_[i % 3]) << i;
    }
}

TEST_F(SweepTest, CellsMatchSerialSimulateRuns)
{
    // The acceptance property: a parallel sweep's per-cell results are
    // bit-identical to serial simulate() runs of the same cells (modulo
    // the timing observability fields, which measure the run itself).
    sweep::Campaign campaign;
    campaign.predictors = {rosterSpec("bimodal"), rosterSpec("gshare")};
    campaign.traces = traces_;
    campaign.base_args.warmup_instr = 30'000;
    json_t result = sweep::run(campaign, 4);

    const json_t &cells = *result.find("cells");
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const json_t &cell = cells[i];
        auto serial_pred =
            pred::makeByName(cell.find("predictor")->asString());
        ASSERT_NE(serial_pred, nullptr);
        SimArgs args = campaign.base_args;
        args.trace_path = cell.find("trace")->asString();
        json_t serial = simulate(*serial_pred, args);

        const json_t &par_metrics = *cell.find("result")->find("metrics");
        const json_t &ser_metrics = *serial.find("metrics");
        for (const char *key :
             {"mpki", "mispredictions", "accuracy"})
            EXPECT_EQ(*par_metrics.find(key), *ser_metrics.find(key))
                << "cell " << i << " metric " << key;
        EXPECT_EQ(*cell.find("result")->find("metadata")
                       ->find("simulation_instr"),
                  *serial.find("metadata")->find("simulation_instr"))
            << i;
        EXPECT_EQ(*cell.find("result")->find("most_failed"),
                  *serial.find("most_failed"))
            << i;
    }
}

TEST_F(SweepTest, AggregateRollsUpPerPredictor)
{
    sweep::Campaign campaign;
    campaign.predictors = {rosterSpec("bimodal"), rosterSpec("gshare")};
    campaign.traces = traces_;
    json_t result = sweep::run(campaign, 3);

    const json_t &aggregate = *result.find("aggregate");
    EXPECT_EQ(aggregate.find("failed_cells")->asUint(), 0u);
    EXPECT_GT(aggregate.find("wall_time_seconds")->asDouble(), 0.0);
    EXPECT_GT(aggregate.find("branches_per_second")->asDouble(), 0.0);

    const json_t &per_predictor = *aggregate.find("per_predictor");
    ASSERT_EQ(per_predictor.size(), 2u);
    const json_t &cells = *result.find("cells");
    for (std::size_t p = 0; p < 2; ++p) {
        double mpki_sum = 0.0;
        std::uint64_t mispredictions = 0;
        for (std::size_t t = 0; t < 3; ++t) {
            const json_t &metrics =
                *cells[p * 3 + t].find("result")->find("metrics");
            mpki_sum += metrics.find("mpki")->asDouble();
            mispredictions += metrics.find("mispredictions")->asUint();
        }
        const json_t &row = per_predictor[p];
        EXPECT_DOUBLE_EQ(row.find("amean_mpki")->asDouble(),
                         mpki_sum / 3.0);
        EXPECT_EQ(row.find("total_mispredictions")->asUint(),
                  mispredictions);
        EXPECT_EQ(row.find("failed_cells")->asUint(), 0u);
    }
}

TEST_F(SweepTest, FailedCellsDoNotAbortTheCampaign)
{
    sweep::Campaign campaign;
    campaign.predictors = {rosterSpec("bimodal"),
                           {"bogus", nullptr, {}}}; // null factory
    campaign.traces = {traces_[0], "/nonexistent/missing.sbbt"};
    json_t result = sweep::run(campaign, 4);

    const json_t &cells = *result.find("cells");
    ASSERT_EQ(cells.size(), 4u);
    // bimodal x traces_[0] is the only good cell.
    EXPECT_FALSE(cells[0].find("result")->contains("error"));
    EXPECT_TRUE(cells[1].find("result")->contains("error"));
    EXPECT_TRUE(cells[2].find("result")->contains("error"));
    EXPECT_TRUE(cells[3].find("result")->contains("error"));
    EXPECT_EQ(result.find("aggregate")->find("failed_cells")->asUint(),
              3u);
    const json_t &per_predictor =
        *result.find("aggregate")->find("per_predictor");
    EXPECT_EQ(per_predictor[0].find("failed_cells")->asUint(), 1u);
    EXPECT_EQ(per_predictor[1].find("failed_cells")->asUint(), 2u);
}

TEST_F(SweepTest, ManyWorkersOnSmallGridIsSafe)
{
    // More workers than cells plus repeated runs, in memory and
    // streaming (where 16 workers split each trace into three passes):
    // the TSan workout.
    sweep::Campaign campaign;
    campaign.predictors = {rosterSpec("bimodal"), rosterSpec("gshare"),
                           rosterSpec("two-level")};
    campaign.traces = traces_;
    const json_t first = sweep::run(campaign, 16);
    const json_t &cells_a = *first.find("cells");
    for (const bool in_memory : {true, false}) {
        for (const unsigned jobs : {16u, 2u}) {
            SCOPED_TRACE((in_memory ? "in-memory, jobs " : "streaming, jobs ") +
                         std::to_string(jobs));
            campaign.in_memory = in_memory;
            const json_t second = sweep::run(campaign, jobs);
            const json_t &cells_b = *second.find("cells");
            ASSERT_EQ(cells_a.size(), cells_b.size());
            for (std::size_t i = 0; i < cells_a.size(); ++i) {
                EXPECT_EQ(*cells_a[i].find("result")->find("metrics")
                               ->find("mispredictions"),
                          *cells_b[i].find("result")->find("metrics")
                               ->find("mispredictions"))
                    << i;
            }
        }
    }
}

TEST(CampaignFromJson, ParsesFullSpec)
{
    auto spec = json_t::parse(R"({
        "predictors": ["gshare", "bimodal"],
        "traces": ["a.sbbt", "b.sbbt"],
        "warmup_instr": 1000,
        "sim_instr": 50000,
        "track_only_conditional": true,
        "collect_most_failed": false,
        "jobs": 7
    })");
    ASSERT_TRUE(spec.has_value());
    sweep::Campaign campaign;
    std::string error;
    ASSERT_TRUE(sweep::campaignFromJson(*spec, campaign, error)) << error;
    ASSERT_EQ(campaign.predictors.size(), 2u);
    EXPECT_EQ(campaign.predictors[0].name, "gshare");
    ASSERT_NE(campaign.predictors[0].make, nullptr);
    EXPECT_NE(campaign.predictors[0].make(), nullptr);
    EXPECT_EQ(campaign.traces,
              (std::vector<std::string>{"a.sbbt", "b.sbbt"}));
    EXPECT_EQ(campaign.base_args.warmup_instr, 1000u);
    EXPECT_EQ(campaign.base_args.sim_instr, 50000u);
    EXPECT_TRUE(campaign.base_args.track_only_conditional);
    EXPECT_FALSE(campaign.base_args.collect_most_failed);
    EXPECT_EQ(campaign.jobs, 7u);
}

TEST(CampaignFromJson, RejectsBadSpecs)
{
    sweep::Campaign campaign;
    std::string error;

    EXPECT_FALSE(
        sweep::campaignFromJson(json_t("text"), campaign, error));

    auto no_traces =
        json_t::parse(R"({"predictors": ["gshare"], "traces": []})");
    ASSERT_TRUE(no_traces.has_value());
    EXPECT_FALSE(sweep::campaignFromJson(*no_traces, campaign, error));
    EXPECT_NE(error.find("traces"), std::string::npos);

    error.clear();
    auto unknown = json_t::parse(
        R"({"predictors": ["not-a-predictor"], "traces": ["a.sbbt"]})");
    ASSERT_TRUE(unknown.has_value());
    EXPECT_FALSE(sweep::campaignFromJson(*unknown, campaign, error));
    EXPECT_NE(error.find("not-a-predictor"), std::string::npos);

    error.clear();
    auto bad_jobs = json_t::parse(
        R"({"predictors": ["gshare"], "traces": ["a"], "jobs": "many"})");
    ASSERT_TRUE(bad_jobs.has_value());
    EXPECT_FALSE(sweep::campaignFromJson(*bad_jobs, campaign, error));

    // Counts are integers in range: a negative number must not wrap to
    // 2^64 - 1, a fraction must not truncate, and jobs must neither wrap
    // to 0 (= hardware concurrency) nor exceed the bound mbp_sweep --jobs
    // has. Parsing only: no campaign starts with these worker counts.
    const auto specWith = [](const std::string &member) {
        return json_t::parse(
            R"({"predictors": ["gshare"], "traces": ["a"], )" + member +
            "}");
    };
    for (const std::string member :
         {R"("warmup_instr": -1)", R"("sim_instr": 2.9)",
          R"("sim_instr": -0.5)", R"("jobs": -1)",
          R"("jobs": 4294967296)", R"("jobs": 4294967295)",
          R"("jobs": 4097)", R"("jobs": 1.5)",
          R"("mem_budget": -1)", R"("mem_budget": 1e30)"}) {
        error.clear();
        auto spec = specWith(member);
        ASSERT_TRUE(spec.has_value()) << member;
        EXPECT_FALSE(sweep::campaignFromJson(*spec, campaign, error))
            << member;
        const std::string key = member.substr(0, member.find(':'));
        EXPECT_NE(error.find(key), std::string::npos) << error;
    }
    auto edges = specWith(
        R"("jobs": 4096, "warmup_instr": 1e6, "sim_instr": 0)");
    ASSERT_TRUE(edges.has_value());
    ASSERT_TRUE(sweep::campaignFromJson(*edges, campaign, error)) << error;
    EXPECT_EQ(campaign.jobs, sweep::kMaxJobs);
    EXPECT_EQ(campaign.base_args.warmup_instr, 1000000u);
    EXPECT_EQ(campaign.base_args.sim_instr, 0u);
}

TEST_F(SweepTest, CsvHasOneRowPerCell)
{
    sweep::Campaign campaign;
    campaign.predictors = {rosterSpec("bimodal"), {"bogus", nullptr, {}}};
    campaign.traces = {traces_[0]};
    json_t result = sweep::run(campaign, 2);
    std::string csv = sweep::toCsv(result);

    // Header plus one line per cell, terminated by a newline.
    std::size_t lines = 0;
    for (char c : csv)
        lines += c == '\n';
    EXPECT_EQ(lines, 3u);
    EXPECT_EQ(csv.rfind("predictor,trace,mpki,accuracy,mispredictions,"
                        "simulation_instr,simulation_time,error\n",
                        0),
              0u);
    EXPECT_NE(csv.find("bimodal,"), std::string::npos);
    EXPECT_NE(csv.find("unknown predictor 'bogus'"), std::string::npos);
}

namespace
{

/**
 * A straight RFC 4180 reader: quoted fields may contain commas, CRLF/LF
 * and doubled quotes. Used to prove toCsv output survives a conforming
 * consumer (spreadsheet, pandas) rather than just eyeballing the bytes.
 */
std::vector<std::vector<std::string>>
parseCsv(const std::string &text)
{
    std::vector<std::vector<std::string>> rows;
    std::vector<std::string> row;
    std::string field;
    bool quoted = false;
    for (std::size_t i = 0; i < text.size(); ++i) {
        char c = text[i];
        if (quoted) {
            if (c == '"') {
                if (i + 1 < text.size() && text[i + 1] == '"') {
                    field.push_back('"');
                    ++i;
                } else {
                    quoted = false;
                }
            } else {
                field.push_back(c);
            }
        } else if (c == '"' && field.empty()) {
            quoted = true;
        } else if (c == ',') {
            row.push_back(std::move(field));
            field.clear();
        } else if (c == '\n') {
            row.push_back(std::move(field));
            field.clear();
            rows.push_back(std::move(row));
            row.clear();
        } else if (c != '\r') {
            field.push_back(c);
        }
    }
    if (!field.empty() || !row.empty()) {
        row.push_back(std::move(field));
        rows.push_back(std::move(row));
    }
    return rows;
}

} // namespace

TEST(SweepCsv, HostileNamesRoundTripThroughRfc4180)
{
    // Display names are free-form; these hit every character RFC 4180
    // treats specially, plus a trace path with a comma and quote in the
    // file name itself.
    const std::string evil_pred = "gshare, \"tuned\"\n(16 kB)";
    const std::string other_pred = "plain";
    const std::string evil_trace =
        writeTrace("evil, \"quoted\".sbbt", 77, 20'000);

    sweep::Campaign campaign;
    campaign.predictors = {
        {evil_pred, [] { return std::make_unique<pred::Gshare<15, 17>>(); },
         {}},
        {other_pred, [] { return std::make_unique<pred::Bimodal<16>>(); },
         {}},
    };
    campaign.traces = {evil_trace};
    json_t result = sweep::run(campaign, 2);
    const std::string csv = sweep::toCsv(result);

    auto rows = parseCsv(csv);
    ASSERT_EQ(rows.size(), 3u) << csv;
    for (const auto &row : rows)
        EXPECT_EQ(row.size(), 8u) << csv;
    // The parsed fields must reproduce the original names byte for byte,
    // newline and all.
    EXPECT_EQ(rows[1][0], evil_pred);
    EXPECT_EQ(rows[1][1], evil_trace);
    EXPECT_EQ(rows[2][0], other_pred);
    // Raw-byte line counting (the naive consumer) must NOT work here:
    // the embedded newline is the regression this test pins down.
    std::size_t raw_newlines = 0;
    for (char c : csv)
        raw_newlines += c == '\n';
    EXPECT_EQ(raw_newlines, 4u) << "expected one quoted newline in " << csv;
}

TEST(SweepCsv, ErrorMessagesAreQuotedToo)
{
    sweep::Campaign campaign;
    campaign.predictors = {{"has, comma", nullptr, {}}};
    campaign.traces = {"/no/such/trace.sbbt"};
    json_t result = sweep::run(campaign, 1);
    const std::string csv = sweep::toCsv(result);
    auto rows = parseCsv(csv);
    ASSERT_EQ(rows.size(), 2u) << csv;
    ASSERT_EQ(rows[1].size(), 8u) << csv;
    EXPECT_EQ(rows[1][0], "has, comma");
    EXPECT_NE(rows[1][7].find("unknown predictor"), std::string::npos);
}

TEST(EffectiveJobs, ResolvesZeroRequestsWithoutGoingSerial)
{
    // An explicit request always wins.
    EXPECT_EQ(sweep::effectiveJobs(8, 4), 8u);
    EXPECT_EQ(sweep::effectiveJobs(1, 0), 1u);
    // jobs == 0 means "all hardware threads"...
    EXPECT_EQ(sweep::effectiveJobs(0, 6), 6u);
    // ...and when hardware_concurrency() itself is unknown (0), the pool
    // must not silently degrade to a single worker: fixed pool of 2.
    EXPECT_EQ(sweep::effectiveJobs(0, 0), 2u);
}

TEST(TraceCache, DecodesOnceAndSharesAcrossAcquires)
{
    const std::string path = writeTrace("cache_share.sbbt", 401, 60'000);
    sweep::TraceCache cache; // default 1 GiB budget
    std::string error;
    auto first = cache.acquire(path, {}, &error);
    ASSERT_NE(first, nullptr) << error;
    auto second = cache.acquire(path, {}, &error);
    EXPECT_EQ(second.get(), first.get()) << "second acquire re-decoded";

    const sweep::TraceCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.evictions, 0u);
    EXPECT_EQ(stats.streamed_fallbacks, 0u);
    EXPECT_EQ(stats.resident_bytes, first->memoryBytes());
    std::remove(path.c_str());
}

TEST(TraceCache, TinyBudgetRefusesWithCountedFallback)
{
    const std::string path = writeTrace("cache_tiny.sbbt", 402, 30'000);
    sweep::TraceCache cache(1); // nothing real fits one byte
    std::string error = "poisoned";
    auto trace = cache.acquire(path, {}, &error);
    EXPECT_EQ(trace, nullptr);
    EXPECT_EQ(error, "") << "a budget refusal is not an error";

    const sweep::TraceCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.streamed_fallbacks, 1u);
    EXPECT_EQ(stats.misses, 0u);
    EXPECT_EQ(stats.resident_bytes, 0u);
    std::remove(path.c_str());
}

TEST(TraceCache, EvictsLeastRecentlyUsedWhenOverBudget)
{
    const std::vector<std::string> paths = {
        writeTrace("cache_lru_a.sbbt", 403, 40'000),
        writeTrace("cache_lru_b.sbbt", 404, 40'000),
        writeTrace("cache_lru_c.sbbt", 405, 40'000),
    };
    std::uint64_t total = 0;
    for (const auto &p : paths) {
        const std::uint64_t est = sbbt::MemTrace::estimateFileBytes(p);
        ASSERT_GT(est, 0u);
        total += est;
    }
    // Any two arenas fit, all three do not: loading the third must evict
    // exactly the least recently used one.
    sweep::TraceCache cache(total - 1);
    std::string error;
    ASSERT_NE(cache.acquire(paths[0], {}, &error), nullptr) << error;
    ASSERT_NE(cache.acquire(paths[1], {}, &error), nullptr) << error;
    ASSERT_NE(cache.acquire(paths[2], {}, &error), nullptr) << error;

    sweep::TraceCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.misses, 3u);
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_LE(stats.resident_bytes, cache.budgetBytes());

    // paths[0] was the LRU victim: touching it again is a fresh decode,
    // while paths[2] is still resident.
    ASSERT_NE(cache.acquire(paths[2], {}, &error), nullptr) << error;
    ASSERT_NE(cache.acquire(paths[0], {}, &error), nullptr) << error;
    stats = cache.stats();
    EXPECT_EQ(stats.misses, 4u);
    EXPECT_EQ(stats.hits, 1u);
    for (const auto &p : paths)
        std::remove(p.c_str());
}

TEST(TraceCache, ConcurrentAcquiresShareOneDecode)
{
    const std::string path = writeTrace("cache_race.sbbt", 406, 80'000);
    sweep::TraceCache cache;
    constexpr int kThreads = 8;
    std::vector<std::shared_ptr<const sbbt::MemTrace>> seen(kThreads);
    std::vector<std::thread> threads;
    for (int w = 0; w < kThreads; ++w) {
        threads.emplace_back([&, w] {
            std::string error;
            seen[w] = cache.acquire(path, {}, &error);
        });
    }
    for (auto &thread : threads)
        thread.join();

    for (int w = 0; w < kThreads; ++w) {
        ASSERT_NE(seen[w], nullptr) << w;
        EXPECT_EQ(seen[w].get(), seen[0].get()) << w;
    }
    const sweep::TraceCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.misses, 1u) << "the decode must happen exactly once";
    EXPECT_EQ(stats.hits, std::uint64_t(kThreads) - 1);
    std::remove(path.c_str());
}

TEST(TraceCache, FailedLoadsReportErrorsAndRetry)
{
    const std::string missing = mbp::test::tempDir() + "/cache_missing.sbbt";
    sweep::TraceCache cache;
    std::string error;
    EXPECT_EQ(cache.acquire(missing, {}, &error), nullptr);
    EXPECT_NE(error, "");
    // The failed entry is dropped, so the trace can appear later and a
    // retry decodes it instead of replaying the stale failure.
    const std::string path = writeTrace("cache_retry.sbbt", 407, 20'000);
    EXPECT_EQ(cache.acquire(missing, {}, &error), nullptr);
    EXPECT_NE(error, "");
    EXPECT_NE(cache.acquire(path, {}, &error), nullptr) << error;
    const sweep::TraceCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.misses, 3u); // two failed attempts plus the decode
    std::remove(path.c_str());
}

TEST(TraceCache, AliasedPathsShareOneArena)
{
    // Regression: the cache used to key on the verbatim path string, so
    // `t.sbbt`, `./t.sbbt` and the absolute spelling each decoded their
    // own arena and triple-counted the budget. Content-hash keying must
    // collapse them to one resident arena.
    const std::string path = writeTrace("cache_alias.sbbt", 410, 50'000);
    const std::size_t slash = path.find_last_of('/');
    const std::string aliased =
        path.substr(0, slash) + "/./" + path.substr(slash + 1);
    const std::string doubled =
        path.substr(0, slash) + "//" + path.substr(slash + 1);

    sweep::TraceCache cache;
    std::string error;
    auto first = cache.acquire(path, {}, &error);
    ASSERT_NE(first, nullptr) << error;
    auto second = cache.acquire(aliased, {}, &error);
    ASSERT_NE(second, nullptr) << error;
    auto third = cache.acquire(doubled, {}, &error);
    ASSERT_NE(third, nullptr) << error;
    EXPECT_EQ(second.get(), first.get());
    EXPECT_EQ(third.get(), first.get());

    const sweep::TraceCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.misses, 1u) << "aliases must not re-decode";
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.resident_bytes, first->memoryBytes())
        << "aliases must not multi-count the budget";
    std::remove(path.c_str());
}

TEST(TraceCache, ContentIdenticalCopiesShareOneArena)
{
    // Keying is by content, not by (canonicalized) name: a byte-identical
    // copy under a different name is the same trace.
    const std::string path = writeTrace("cache_copy_a.sbbt", 411, 50'000);
    const std::string copy = mbp::test::tempDir() + "/cache_copy_b.sbbt";
    {
        std::ifstream src(path, std::ios::binary);
        std::ofstream dst(copy, std::ios::binary);
        dst << src.rdbuf();
        ASSERT_TRUE(dst.good());
    }
    sweep::TraceCache cache;
    std::string error;
    auto first = cache.acquire(path, {}, &error);
    ASSERT_NE(first, nullptr) << error;
    auto second = cache.acquire(copy, {}, &error);
    EXPECT_EQ(second.get(), first.get());
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().resident_bytes, first->memoryBytes());
    std::remove(path.c_str());
    std::remove(copy.c_str());
}

TEST(TraceCache, DecodeOptionsArePartOfTheKey)
{
    // Regression: acquire() used to ignore ReaderOptions, so the first
    // caller's knobs silently decided how everyone's arena was decoded.
    // Different decode-relevant options must get distinct entries.
    const std::string path = writeTrace("cache_opts.sbbt", 412, 40'000);
    sweep::TraceCache cache;
    std::string error;
    sbbt::ReaderOptions defaults;
    sbbt::ReaderOptions packet_at_a_time;
    packet_at_a_time.block_packets = 1;
    packet_at_a_time.prefetch = false;

    auto first = cache.acquire(path, defaults, &error);
    ASSERT_NE(first, nullptr) << error;
    auto second = cache.acquire(path, packet_at_a_time, &error);
    ASSERT_NE(second, nullptr) << error;
    EXPECT_NE(second.get(), first.get());
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().hits, 0u);
    // Same options again is a hit on its own entry.
    EXPECT_EQ(cache.acquire(path, packet_at_a_time, &error).get(),
              second.get());
    EXPECT_EQ(cache.stats().hits, 1u);
    std::remove(path.c_str());
}

TEST(TraceCache, WaitersOnFailedLoadsAreNotHits)
{
    // Regression (trace_cache.cpp:71): a waiter blocking on an in-flight
    // decode that then *failed* was counted as a cache hit, inflating the
    // aggregate. Whatever the interleaving, a failing trace must produce
    // zero hits — only misses and failed_waits.
    const std::string path = mbp::test::tempDir() + "/cache_fail_race.sbbt";
    {
        // A file that passes the header peek but fails mid-decode keeps
        // the loading window open as long as possible; a missing file
        // exercises the instant-failure path. Both must count the same.
        std::ofstream out(path, std::ios::binary);
        out << "SBBT";
        for (int i = 0; i < 1000; ++i)
            out << "garbage";
    }
    sweep::TraceCache cache;
    constexpr int kThreads = 8;
    std::vector<std::thread> threads;
    for (int w = 0; w < kThreads; ++w) {
        threads.emplace_back([&] {
            std::string error;
            EXPECT_EQ(cache.acquire(path, {}, &error), nullptr);
            EXPECT_NE(error, "") << "failures must carry the error";
        });
    }
    for (auto &thread : threads)
        thread.join();

    const sweep::TraceCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits, 0u) << "no acquire got an arena";
    EXPECT_EQ(stats.misses + stats.failed_waits, std::uint64_t(kThreads));
    EXPECT_GE(stats.misses, 1u);
    EXPECT_EQ(stats.resident_bytes, 0u);
    std::remove(path.c_str());
}

TEST(TraceCache, ConsultsThePersistentStoreOnMisses)
{
    const std::string path = writeTrace("cache_store.sbbt", 413, 60'000);
    const std::string dir = mbp::test::tempDir() + "/cache_store_dir";
    std::filesystem::remove_all(dir);
    auto store = std::make_shared<sbbt::ArenaStore>(dir);
    ASSERT_TRUE(store->ok());

    std::string error;
    {
        // First cache: cold store — the miss decodes and materializes.
        sweep::TraceCache cache(sweep::kDefaultMemBudget, store);
        ASSERT_NE(cache.acquire(path, {}, &error), nullptr) << error;
        EXPECT_EQ(cache.stats().misses, 1u);
        EXPECT_EQ(cache.stats().mapped_loads, 0u);
    }
    // Second cache (fresh process, same store): the miss maps zero-decode.
    sweep::TraceCache cache(sweep::kDefaultMemBudget, store);
    auto arena = cache.acquire(path, {}, &error);
    ASSERT_NE(arena, nullptr) << error;
    EXPECT_TRUE(arena->mapped());
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().mapped_loads, 1u);
    std::remove(path.c_str());
}

TEST_F(SweepTest, ArenaCacheCampaignMapsOnTheSecondRun)
{
    const std::string dir = mbp::test::tempDir() + "/sweep_arena_dir";
    std::filesystem::remove_all(dir);
    sweep::Campaign campaign;
    campaign.predictors = {rosterSpec("bimodal"), rosterSpec("gshare")};
    campaign.traces = traces_;
    campaign.arena_cache = true;
    campaign.arena_cache_dir = dir;

    json_t cold = sweep::run(campaign, 4);
    json_t warm = sweep::run(campaign, 4);
    const json_t &cold_cache = *cold.find("aggregate")->find("trace_cache");
    const json_t &warm_cache = *warm.find("aggregate")->find("trace_cache");
    EXPECT_TRUE(cold.find("metadata")->find("arena_cache")->asBool());
    EXPECT_EQ(cold_cache.find("mapped_loads")->asUint(), 0u);
    EXPECT_EQ(warm_cache.find("misses")->asUint(), traces_.size());
    EXPECT_EQ(warm_cache.find("mapped_loads")->asUint(), traces_.size())
        << "second campaign must map every trace from the store";

    // And the mapped campaign's results are identical to the cold one's.
    const json_t &cells_a = *cold.find("cells");
    const json_t &cells_b = *warm.find("cells");
    ASSERT_EQ(cells_a.size(), cells_b.size());
    for (std::size_t i = 0; i < cells_a.size(); ++i) {
        EXPECT_EQ(*cells_a[i].find("result")->find("metrics")
                       ->find("mispredictions"),
                  *cells_b[i].find("result")->find("metrics")
                       ->find("mispredictions"))
            << i;
    }
    std::filesystem::remove_all(dir);
}

TEST_F(SweepTest, InMemoryCampaignDecodesEachTraceOnce)
{
    sweep::Campaign campaign;
    campaign.predictors = {rosterSpec("bimodal"), rosterSpec("gshare"),
                           rosterSpec("two-level")};
    campaign.traces = traces_;
    json_t result = sweep::run(campaign, 4);

    EXPECT_TRUE(result.find("metadata")->find("in_memory")->asBool());
    EXPECT_EQ(result.find("aggregate")->find("failed_cells")->asUint(),
              0u);
    const json_t &cache = *result.find("aggregate")->find("trace_cache");
    // The decode-once guarantee: one miss per trace no matter how many
    // predictors visit it; every other visit shares the arena.
    EXPECT_EQ(cache.find("misses")->asUint(), traces_.size());
    EXPECT_EQ(cache.find("hits")->asUint(),
              traces_.size() * (campaign.predictors.size() - 1));
    EXPECT_EQ(cache.find("streamed_fallbacks")->asUint(), 0u);
    EXPECT_EQ(cache.find("evictions")->asUint(), 0u);
}

TEST_F(SweepTest, BudgetedCampaignNeverFailsJustStreams)
{
    sweep::Campaign campaign;
    campaign.predictors = {rosterSpec("bimodal"), rosterSpec("gshare")};
    campaign.traces = traces_;
    campaign.mem_budget = 1; // every arena is refused

    json_t budgeted = sweep::run(campaign, 4);
    EXPECT_EQ(budgeted.find("aggregate")->find("failed_cells")->asUint(),
              0u);
    const json_t &cache = *budgeted.find("aggregate")->find("trace_cache");
    EXPECT_EQ(cache.find("misses")->asUint(), 0u);
    EXPECT_EQ(cache.find("streamed_fallbacks")->asUint(),
              campaign.predictors.size() * traces_.size());

    // ...and the streamed cells are identical to a plain streaming run.
    campaign.in_memory = false;
    json_t streaming = sweep::run(campaign, 4);
    const json_t &cells_a = *budgeted.find("cells");
    const json_t &cells_b = *streaming.find("cells");
    ASSERT_EQ(cells_a.size(), cells_b.size());
    for (std::size_t i = 0; i < cells_a.size(); ++i) {
        EXPECT_EQ(*cells_a[i].find("result")->find("metrics")
                       ->find("mispredictions"),
                  *cells_b[i].find("result")->find("metrics")
                       ->find("mispredictions"))
            << i;
    }
}

TEST(TraceCache, ReleaseKeepsHoldersValidAndDropsResidentBytes)
{
    const std::string path = writeTrace("cache_release.sbbt", 414, 50'000);
    sweep::TraceCache cache;
    std::string error;
    auto held = cache.acquire(path, {}, &error);
    ASSERT_NE(held, nullptr) << error;
    const std::uint64_t bytes = held->memoryBytes();
    EXPECT_EQ(cache.stats().resident_bytes, bytes);

    cache.release(path, {});
    sweep::TraceCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.resident_bytes, 0u);
    EXPECT_EQ(stats.peak_resident_bytes, bytes);
    EXPECT_EQ(stats.evictions, 0u) << "a release is not an eviction";

    // The holder's arena outlives its cache entry, untouched.
    auto fresh = sbbt::MemTrace::load(path, {}, &error);
    ASSERT_NE(fresh, nullptr) << error;
    ASSERT_EQ(held->size(), fresh->size());
    for (std::size_t i = 0; i < fresh->size(); ++i) {
        ASSERT_EQ(held->ip(i), fresh->ip(i)) << i;
        ASSERT_EQ(held->instrNumber(i), fresh->instrNumber(i)) << i;
        ASSERT_EQ(held->siteIndex(i), fresh->siteIndex(i)) << i;
    }

    // A re-acquire after the release decodes afresh: a miss, not a hit.
    auto again = cache.acquire(path, {}, &error);
    ASSERT_NE(again, nullptr) << error;
    EXPECT_NE(again.get(), held.get());
    stats = cache.stats();
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.resident_bytes, bytes);
    EXPECT_EQ(stats.peak_resident_bytes, bytes);
    std::remove(path.c_str());
}

TEST(TraceCache, ReleaseTouchesOnlyItsOwnEntry)
{
    const std::string path = writeTrace("cache_release_key.sbbt", 415,
                                        30'000);
    sweep::TraceCache cache;
    // Releasing what was never cached is a no-op.
    cache.release(mbp::test::tempDir() + "/never_cached.sbbt", {});
    cache.release(path, {});
    EXPECT_EQ(cache.stats().resident_bytes, 0u);

    std::string error;
    auto arena = cache.acquire(path, {}, &error);
    ASSERT_NE(arena, nullptr) << error;
    // Other decode options name another entry: this one stays cached.
    sbbt::ReaderOptions packet_at_a_time;
    packet_at_a_time.block_packets = 1;
    cache.release(path, packet_at_a_time);
    EXPECT_EQ(cache.stats().resident_bytes, arena->memoryBytes());
    EXPECT_EQ(cache.acquire(path, {}, &error).get(), arena.get());
    EXPECT_EQ(cache.stats().hits, 1u);
    std::remove(path.c_str());
}

namespace
{

/** Deep copy of @p value without the timing keys: the only fields
 *  allowed to differ between sources, predictor types and job counts. */
json_t
scrubTiming(const json_t &value)
{
    if (value.isObject()) {
        json_t out = json_t::object({});
        for (const auto &[key, member] : value.members()) {
            if (key != "simulation_time" && key != "branches_per_second" &&
                key != "decompressed_bytes" &&
                key != "prefetch_stall_seconds" &&
                key != "trace_load_seconds")
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

/** The cells of @p campaign as serial per-cell simulate() runs give
 *  them, in grid order: an oracle that runs no sweep at all. */
json_t
serialCells(const sweep::Campaign &campaign)
{
    json_t cells = json_t::array();
    for (const sweep::PredictorSpec &spec : campaign.predictors) {
        for (const std::string &trace : campaign.traces) {
            SimArgs args = campaign.base_args;
            args.trace_path = trace;
            std::unique_ptr<Predictor> predictor = spec.make();
            json_t cell =
                json_t::object({{"predictor", spec.name}, {"trace", trace}});
            if (campaign.frontend) {
                frontend::FrontEndConfig config;
                std::string error;
                EXPECT_TRUE(frontend::parseFrontEndSpec(
                    campaign.frontend_spec, config, error))
                    << error;
                frontend::FrontEnd front_end(std::move(predictor), config);
                cell["result"] = frontend::simulate(front_end, args);
            } else {
                cell["result"] = simulate(*predictor, args);
            }
            cells.push_back(std::move(cell));
        }
    }
    return cells;
}

/** Five traces of unequal length: no job count from 2 to 4 divides
 *  them, so every multi-worker sweep over them ends in a short wave. */
std::vector<std::string>
waveTraces()
{
    std::vector<std::string> traces;
    for (int k = 0; k < 5; ++k)
        traces.push_back(writeTrace("wave_" + std::to_string(k) + ".sbbt",
                                    501 + k, 40'000 + 15'000 * k));
    return traces;
}

} // namespace

TEST(SweepWaves, EveryJobCountMatchesASerialStreamingRun)
{
    const std::vector<std::string> all = waveTraces();
    std::uint64_t largest_arena = 0;
    for (const std::string &path : all) {
        std::string error;
        auto arena = sbbt::MemTrace::load(path, {}, &error);
        ASSERT_NE(arena, nullptr) << error;
        largest_arena = std::max(largest_arena, arena->memoryBytes());
    }
    const std::string store = mbp::test::tempDir() + "/wave_store";
    // Five traces give tail waves of 1 (2 and 4 jobs) and 2 (3 jobs), and
    // one pass per trace at every job count; three traces give a tail of
    // 1 (2 jobs), a single short wave and two passes per trace (4 jobs,
    // more workers than traces). The sim_instr window stops every pass
    // inside a block. Front-end campaigns (two front ends) run the same
    // shapes.
    struct Shape
    {
        std::size_t num_traces;
        std::uint64_t warmup_instr;
        std::uint64_t sim_instr;
        std::vector<std::string> sources;
        bool frontend;
    };
    const std::uint64_t kUnlimited = SimArgs{}.sim_instr;
    const std::vector<std::string> kAllSources = {"streaming", "in-memory",
                                                  "store"};
    std::vector<Shape> shapes;
    for (const bool frontend : {false, true}) {
        shapes.push_back({5, 10'000, kUnlimited, kAllSources, frontend});
        shapes.push_back({3, 10'000, kUnlimited, kAllSources, frontend});
        shapes.push_back({5, 5'000, 30'001,
                          frontend ? kAllSources
                                   : std::vector<std::string>{"streaming"},
                          frontend});
        shapes.push_back({3, 5'000, 30'001, {"streaming"}, frontend});
    }
    for (const Shape &shape : shapes) {
        sweep::Campaign campaign;
        campaign.predictors = {rosterSpec("bimodal"), rosterSpec("gshare")};
        if (!shape.frontend)
            campaign.predictors.push_back(rosterSpec("two-level"));
        campaign.traces.assign(all.begin(), all.begin() + shape.num_traces);
        campaign.base_args.warmup_instr = shape.warmup_instr;
        campaign.base_args.sim_instr = shape.sim_instr;
        campaign.frontend = shape.frontend;
        // Every source, with fused and virtual predictors, at every job
        // count gives the documents of serial per-cell simulate() (or
        // frontend::simulate()) runs; a fused front end's direction
        // kernel is the fused one.
        const json_t expected = serialCells(campaign);
        std::uint64_t expected_branches = 0;
        for (std::size_t i = 0; i < expected.size(); ++i)
            expected_branches += expected[i]
                                     .find("result")
                                     ->find("metrics")
                                     ->find("dynamic_branches")
                                     ->asUint();
        std::vector<std::tuple<std::string, bool, unsigned>> runs;
        for (const std::string &source : shape.sources)
            for (const bool fused : {false, true})
                for (const unsigned jobs : {1u, 2u, 3u, 4u})
                    if (!fused || !shape.frontend)
                        runs.emplace_back(source, fused, jobs);
        for (const auto &[source, fused, jobs] : runs) {
            SCOPED_TRACE("traces " + std::to_string(shape.num_traces) +
                         ", sim_instr " + std::to_string(shape.sim_instr) +
                         ", " + source +
                         (shape.frontend ? " frontend"
                                         : (fused ? " fused" : " virtual")) +
                         ", jobs " + std::to_string(jobs));
            campaign.in_memory = source != "streaming";
            campaign.arena_cache = source == "store";
            campaign.arena_cache_dir = store;
            campaign.fused = fused;
            const json_t result = sweep::run(campaign, jobs);
            const json_t &cells = *result.find("cells");
            ASSERT_EQ(cells.size(), expected.size());
            std::uint64_t branches = 0;
            for (std::size_t i = 0; i < cells.size(); ++i) {
                const json_t &got = *cells[i].find("result");
                ASSERT_FALSE(got.contains("error")) << i;
                EXPECT_EQ(scrubTiming(cells[i]).dump(2),
                          scrubTiming(expected[i]).dump(2))
                    << i;
                branches +=
                    got.find("metrics")->find("dynamic_branches")->asUint();
            }
            const json_t &aggregate = *result.find("aggregate");
            EXPECT_EQ(aggregate.find("dynamic_branches")->asUint(), branches);
            EXPECT_EQ(aggregate.find("dynamic_branches")->asUint(),
                      expected_branches);
            if (source != "in-memory")
                continue;

            // Decode-once holds in every wave shape, and every arena is
            // released once its last cell is done.
            const json_t &cache = *aggregate.find("trace_cache");
            EXPECT_EQ(cache.find("misses")->asUint(), shape.num_traces);
            EXPECT_EQ(cache.find("hits")->asUint(),
                      shape.num_traces * (campaign.predictors.size() - 1));
            EXPECT_EQ(cache.find("failed_waits")->asUint(), 0u);
            EXPECT_EQ(cache.find("resident_bytes")->asUint(), 0u);
            EXPECT_GT(cache.find("peak_resident_bytes")->asUint(), 0u);
            if (jobs == 1) {
                // One worker releases each trace before it decodes the
                // next, so only one arena is ever resident.
                EXPECT_LE(cache.find("peak_resident_bytes")->asUint(),
                          largest_arena);
            }
        }
    }
    for (const std::string &path : all)
        std::remove(path.c_str());
}

namespace
{

/** Throws from train() once it has trained 1000 branches. */
class ThrowsInTrain final : public Predictor
{
  public:
    bool predict(std::uint64_t ip) override { return (ip >> 2 & 1) != 0; }
    void
    train(const Branch &) override
    {
        if (++trained_ > 1000)
            throw std::runtime_error("train failed");
    }
    void track(const Branch &) override {}

  private:
    std::uint64_t trained_ = 0;
};

} // namespace

TEST_F(SweepTest, AThrowingPredictorFailsOnlyItsOwnCells)
{
    // A factory that throws used to escape the cell and abort the
    // process. It, and a predictor that throws mid-trace, must fail only
    // their own cells, streamed in passes or run per cell, fused,
    // virtual or in front ends; the cells beside them are those of
    // serial simulate() (or frontend::simulate()) runs.
    const sweep::PredictorSpec bad_factory{
        "bad-factory",
        []() -> std::unique_ptr<Predictor> {
            throw std::runtime_error("bad config");
        },
        []() -> std::unique_ptr<BlockKernel> {
            throw std::runtime_error("bad config");
        }};
    const sweep::PredictorSpec bad_train{
        "bad-train", [] { return std::make_unique<ThrowsInTrain>(); },
        [] { return makeFusedKernel<ThrowsInTrain>(); }};
    sweep::Campaign good;
    good.predictors = {rosterSpec("bimodal"), rosterSpec("gshare")};
    good.traces = traces_;
    good.base_args.warmup_instr = 5'000;
    sweep::Campaign good_frontend = good;
    good_frontend.frontend = true;
    const json_t expected_cells = serialCells(good);
    const json_t expected_frontend = serialCells(good_frontend);

    const std::vector<std::pair<sweep::PredictorSpec, std::string>> cases = {
        {bad_factory, "exception: bad config"},
        {bad_train, "exception: train failed"},
    };
    for (const auto &[bad, message] : cases) {
        sweep::Campaign campaign = good;
        campaign.predictors = {good.predictors[0], bad, good.predictors[1]};
        std::vector<std::tuple<bool, bool, bool, unsigned>> runs;
        for (const bool in_memory : {false, true})
            for (const unsigned jobs : {1u, 4u}) {
                for (const bool fused : {false, true})
                    runs.emplace_back(false, in_memory, fused, jobs);
                runs.emplace_back(true, in_memory, false, jobs);
            }
        for (const auto &[front_ends, in_memory, fused, jobs] : runs) {
            SCOPED_TRACE(bad.name + (in_memory ? " in-memory" : " streaming") +
                         (front_ends ? " frontend"
                                     : (fused ? " fused" : " virtual")) +
                         ", jobs " + std::to_string(jobs));
            campaign.frontend = front_ends;
            campaign.in_memory = in_memory;
            campaign.fused = fused;
            const json_t &expected =
                front_ends ? expected_frontend : expected_cells;
            const json_t result = sweep::run(campaign, jobs);
            const json_t &cells = *result.find("cells");
            ASSERT_EQ(cells.size(), 9u);
            for (std::size_t t = 0; t < 3; ++t) {
                EXPECT_EQ(scrubTiming(cells[t]).dump(2),
                          scrubTiming(expected[t]).dump(2));
                EXPECT_EQ(scrubTiming(cells[6 + t]).dump(2),
                          scrubTiming(expected[3 + t]).dump(2));
                const json_t &failed = *cells[3 + t].find("result");
                ASSERT_TRUE(failed.contains("error")) << t;
                EXPECT_EQ(failed.find("error")->asString(), message);
            }
            EXPECT_EQ(result.find("aggregate")->find("failed_cells")->asUint(),
                      3u);
        }
    }
}

TEST_F(SweepTest, CampaignHookSeesEachPredictorsCampaignIndex)
{
    // A run numbers its kernels from 0, and a streaming pass holds
    // several, dealt across passes when workers outnumber traces. A
    // campaign's hook must still see each predictor's index in the
    // campaign, so that its guesses map back to their cells: predictor
    // p's hook calls and wrong guesses are its cells' conditional
    // branches and mispredictions.
    sweep::Campaign campaign;
    campaign.predictors = {rosterSpec("bimodal"), rosterSpec("gshare"),
                           rosterSpec("tage")};
    campaign.traces = traces_;
    const json_t expected = serialCells(campaign);
    for (const bool in_memory : {false, true}) {
        for (const unsigned jobs : {1u, 4u}) {
            SCOPED_TRACE(std::string(in_memory ? "in-memory" : "streaming") +
                         ", jobs " + std::to_string(jobs));
            std::array<std::atomic<std::uint64_t>, 3> calls{};
            std::array<std::atomic<std::uint64_t>, 3> wrong{};
            std::atomic<std::uint64_t> out_of_range{0};
            campaign.in_memory = in_memory;
            campaign.base_args.prediction_hook =
                [&](const Branch &branch, bool predicted, std::uint64_t,
                    bool, std::size_t p) {
                    if (p >= calls.size()) {
                        ++out_of_range;
                        return;
                    }
                    ++calls[p];
                    wrong[p] += predicted != branch.isTaken();
                };
            sweep::run(campaign, jobs);
            EXPECT_EQ(out_of_range.load(), 0u);
            for (std::size_t p = 0; p < 3; ++p) {
                std::uint64_t conditionals = 0;
                std::uint64_t mispredictions = 0;
                for (std::size_t t = 0; t < traces_.size(); ++t) {
                    const json_t &doc =
                        *expected[p * traces_.size() + t].find("result");
                    conditionals += doc.find("metadata")
                                        ->find("num_conditional_branches")
                                        ->asUint();
                    mispredictions +=
                        doc.find("metrics")->find("mispredictions")->asUint();
                }
                EXPECT_EQ(calls[p].load(), conditionals) << p;
                EXPECT_EQ(wrong[p].load(), mispredictions) << p;
            }
        }
    }
}

TEST_F(SweepTest, StreamingPassCellsSplitThePassTime)
{
    // A cell of a streaming pass reports its own kernel's stepping time
    // plus an even share of the pass's decode. On one worker the passes
    // run one after another inside the campaign's wall time, so the
    // cells sum to no more than it; reporting the whole pass's time in
    // every cell would read about P times as much.
    sweep::Campaign campaign;
    campaign.predictors = {rosterSpec("bimodal"), rosterSpec("gshare"),
                           rosterSpec("tage")};
    campaign.traces = traces_;
    campaign.in_memory = false;
    const json_t result = sweep::run(campaign, 1);
    double cell_seconds = 0.0;
    for (const json_t &cell : result.find("cells")->elements()) {
        const double seconds = cell.find("result")
                                   ->find("metrics")
                                   ->find("simulation_time")
                                   ->asDouble();
        EXPECT_GT(seconds, 0.0);
        cell_seconds += seconds;
    }
    EXPECT_LE(cell_seconds, result.find("aggregate")
                                ->find("wall_time_seconds")
                                ->asDouble());
}

TEST(SweepWaves, ADuplicatedPathIsReleasedAfterItsLastListing)
{
    // Every listing of one trace shares one cache entry — the same path
    // twice, a ./ spelling of it, a byte-identical copy — so its arena
    // must stay until the cells of all of them are done: one decode per
    // distinct content, whatever the worker count.
    const std::vector<std::string> traces = waveTraces();
    const std::filesystem::path first(traces[0]);
    const std::string aliased =
        (first.parent_path() / "." / first.filename()).string();
    const std::string copied = traces[0] + ".copy";
    std::filesystem::copy_file(traces[0], copied);
    sweep::Campaign campaign;
    campaign.predictors = {rosterSpec("bimodal"), rosterSpec("gshare")};
    campaign.traces = {traces[0], traces[1], traces[2],
                       traces[0], aliased,   copied};
    const std::size_t num_listings = campaign.traces.size();
    for (const unsigned jobs : {1u, 2u, 3u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        const json_t result = sweep::run(campaign, jobs);
        const json_t &cache =
            *result.find("aggregate")->find("trace_cache");
        EXPECT_EQ(cache.find("misses")->asUint(), 3u);
        EXPECT_EQ(cache.find("hits")->asUint(), 2 * num_listings - 3u);
        EXPECT_EQ(cache.find("resident_bytes")->asUint(), 0u);
        const json_t &cells = *result.find("cells");
        for (std::size_t p = 0; p < 2; ++p)
            for (const std::size_t t : {3u, 4u, 5u})
                EXPECT_EQ(*cells[p * num_listings].find("result")
                               ->find("metrics")
                               ->find("mispredictions"),
                          *cells[p * num_listings + t].find("result")
                               ->find("metrics")
                               ->find("mispredictions"))
                    << p << ", listing " << t;
    }
    for (const std::string &path : traces)
        std::remove(path.c_str());
    std::remove(copied.c_str());
}

TEST(SweepWaves, AnInvalidFrontEndSpecFailsEveryCell)
{
    // A campaign built in code skips campaignFromJson's spec check; its
    // bad spec must then fail every cell, on every source and schedule,
    // and never the process.
    const std::vector<std::string> traces = waveTraces();
    sweep::Campaign campaign;
    campaign.predictors = {rosterSpec("bimodal"), rosterSpec("gshare")};
    campaign.traces.assign(traces.begin(), traces.begin() + 3);
    campaign.frontend = true;
    campaign.frontend_spec = "btb-sets=3";
    for (const bool in_memory : {false, true}) {
        for (const unsigned jobs : {1u, 4u}) {
            SCOPED_TRACE(std::string(in_memory ? "in-memory" : "streaming") +
                         ", jobs " + std::to_string(jobs));
            campaign.in_memory = in_memory;
            const json_t result = sweep::run(campaign, jobs);
            const json_t &cells = *result.find("cells");
            ASSERT_EQ(cells.size(), 6u);
            for (std::size_t i = 0; i < cells.size(); ++i) {
                const json_t &doc = *cells[i].find("result");
                ASSERT_TRUE(doc.contains("error")) << i;
                EXPECT_EQ(doc.find("error")->asString().rfind(
                              "invalid frontend spec: ", 0),
                          0u)
                    << doc.find("error")->asString();
            }
            EXPECT_EQ(
                result.find("aggregate")->find("failed_cells")->asUint(),
                6u);
        }
    }
    for (const std::string &path : traces)
        std::remove(path.c_str());
}

TEST(SweepWaves, FrontEndCellsMatchASerialStreamingRun)
{
    const std::vector<std::string> traces = waveTraces();
    sweep::Campaign campaign;
    campaign.predictors = {rosterSpec("bimodal"), rosterSpec("gshare")};
    campaign.traces = traces;
    campaign.frontend = true;
    campaign.in_memory = false;
    const json_t streaming = sweep::run(campaign, 1);
    campaign.in_memory = true;
    const json_t waved = sweep::run(campaign, 3);
    const json_t &expected = *streaming.find("cells");
    const json_t &cells = *waved.find("cells");
    ASSERT_EQ(cells.size(), expected.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const json_t &got = *cells[i].find("result");
        const json_t &want = *expected[i].find("result");
        ASSERT_FALSE(got.contains("error")) << i;
        EXPECT_EQ(*got.find("metrics")->find("mispredictions"),
                  *want.find("metrics")->find("mispredictions"))
            << i;
        // Per-class target mispredictions, rollups and structures.
        EXPECT_EQ(*got.find("frontend"), *want.find("frontend")) << i;
    }
    for (const std::string &path : traces)
        std::remove(path.c_str());
}

TEST(SweepBadInput, InflatedHeaderCountIsAnErrorCellNotACrash)
{
    // A 184-byte trace whose header claims 2^40 branches. Its arena
    // decode used to throw std::bad_alloc outside the cell's try, and
    // with no budget to refuse it first the sweep hit std::terminate.
    const std::string good = writeTrace("inflated_good.sbbt", 416, 20'000);
    const std::string bad = mbp::test::tempDir() + "/inflated_bad.sbbt";
    {
        sbbt::SbbtWriter writer(bad);
        for (int i = 0; i < 10; ++i)
            EXPECT_TRUE(writer.append(
                Branch{0x400000, 0x400100,
                       OpCode(BranchType::kJump, true, false), i % 2 == 0},
                3));
        ASSERT_TRUE(writer.close()) << writer.error();
        std::fstream patch(bad, std::ios::binary | std::ios::in |
                                    std::ios::out);
        const sbbt::Header header{.instruction_count = 40,
                                  .branch_count = std::uint64_t(1) << 40};
        const auto bytes = sbbt::encodeHeader(header);
        patch.write(reinterpret_cast<const char *>(bytes.data()),
                    std::streamsize(bytes.size()));
        ASSERT_TRUE(patch.good());
    }
    ASSERT_EQ(std::filesystem::file_size(bad), 184u);

    for (const bool fused : {true, false}) {
        SCOPED_TRACE(fused ? "fused" : "virtual");
        sweep::Campaign campaign;
        campaign.predictors = {rosterSpec("bimodal"), rosterSpec("gshare")};
        campaign.traces = {good, bad};
        campaign.mem_budget = 0; // unlimited: nothing refuses the arena
        campaign.fused = fused;
        const json_t result = sweep::run(campaign, 2);
        const json_t &cells = *result.find("cells");
        ASSERT_EQ(cells.size(), 4u);
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const json_t &cell_result = *cells[i].find("result");
            if (i % 2 == 0) {
                EXPECT_FALSE(cell_result.contains("error")) << i;
                continue;
            }
            ASSERT_TRUE(cell_result.contains("error")) << i;
            EXPECT_NE(cell_result.find("error")->asString().find(
                          "trace ended early"),
                      std::string::npos)
                << cell_result.find("error")->asString();
        }
        EXPECT_EQ(result.find("aggregate")->find("failed_cells")->asUint(),
                  2u);
    }
    std::remove(good.c_str());
    std::remove(bad.c_str());
}

TEST(CampaignFromJson, ParsesArenaKnobs)
{
    auto spec = json_t::parse(R"({
        "predictors": ["gshare"],
        "traces": ["a.sbbt"],
        "in_memory": false,
        "mem_budget": 4096
    })");
    ASSERT_TRUE(spec.has_value());
    sweep::Campaign campaign;
    std::string error;
    ASSERT_TRUE(sweep::campaignFromJson(*spec, campaign, error)) << error;
    EXPECT_FALSE(campaign.in_memory);
    EXPECT_EQ(campaign.mem_budget, 4096u);

    auto bad = json_t::parse(
        R"({"predictors": ["gshare"], "traces": ["a"], "in_memory": 3})");
    ASSERT_TRUE(bad.has_value());
    EXPECT_FALSE(sweep::campaignFromJson(*bad, campaign, error));
    EXPECT_NE(error.find("in_memory"), std::string::npos);
}
