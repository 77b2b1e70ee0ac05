/**
 * @file
 * Reproduces paper Table III (top): simulation time of MBPlib versus the
 * CBP5 framework over the training-suite traces, for all eight example
 * predictors, reported as slowest / average / fastest trace plus speedup.
 *
 * Also re-checks §VII-C on every run: both simulators must produce
 * identical misprediction counts from the equivalent traces.
 *
 * Expected shape: the speedup is largest for the cheapest predictor
 * (Bimodal — the run is dominated by simulator code, i.e. trace parsing)
 * and shrinks as the predictor gets more expensive (BATAGE), exactly the
 * 18.4x -> 3.25x gradient of the paper.
 *
 * Both MBPlib grids, decode-once arena and streamed, run as one
 * mbp::sweep campaign per predictor, cell-parallel ($MBP_JOBS workers,
 * default all hardware threads; MBP_JOBS=1 restores the serial behavior). Cell
 * results are independent of the worker count; per-cell times get a
 * little noisier under full load, the bench's wall clock several times
 * shorter.
 */
#include <chrono>
#include <cstdio>

#include "bench_common.hpp"
#include "bench_predictors.hpp"
#include "cbp5/framework.hpp"
#include "mbp/sweep/sweep.hpp"
#include "mbp/tools/corpus.hpp"
#include "mbp/tracegen/suite.hpp"

int
main()
{
    using namespace mbp;
    const std::string dir = bench::corpusDir();
    auto suite = tracegen::cbp5TrainMini(0.30);
    tools::CorpusFormats formats;
    formats.sbbt_flz = true;
    formats.btt_gz = true;
    std::printf("materializing %zu traces under %s (cached)...\n",
                suite.size(), dir.c_str());
    auto entries = tools::materialize(dir, suite, formats);

    const unsigned jobs = bench::jobCount();
    auto predictors = bench::tableIIIPredictors();
    const std::size_t num_preds = predictors.size();
    const std::size_t num_traces = entries.size();
    auto bench_start = std::chrono::steady_clock::now();

    // MBPlib side: the (predictor x trace) grid over the decode-once
    // arena cache (the default), and the same grid streamed, so the
    // arena's effect on the Table III gradient is measured on every run.
    // The paper times one predictor reading its own trace stream, while
    // a streaming campaign steps all of a trace's predictors in one pass
    // (and gives each cell an even share of the pass's decode), so both
    // grids run as one campaign per predictor: an in-memory campaign of
    // all eight would co-schedule the heavy predictors' cells with the
    // others and time them under a different load than the streamed ones.
    sweep::Campaign campaign;
    for (const auto &pred : predictors)
        campaign.predictors.push_back({pred.name, pred.make, {}});
    for (const auto &entry : entries)
        campaign.traces.push_back(entry.sbbt_flz);

    struct CacheTotals
    {
        std::uint64_t misses = 0, hits = 0, evictions = 0,
                      streamed_fallbacks = 0;
    };
    // Runs the grid as one campaign per predictor, in memory or streamed;
    // returns the cells, predictor-major like one whole-grid campaign's,
    // and adds the campaigns' trace-cache counts to @p cache.
    const auto runPerPredictor = [&](bool in_memory, CacheTotals &cache) {
        json_t cells = json_t::array();
        for (const sweep::PredictorSpec &spec : campaign.predictors) {
            sweep::Campaign one = campaign;
            one.predictors = {spec};
            one.in_memory = in_memory;
            const json_t grid = sweep::run(one, jobs);
            for (const json_t &cell : grid.find("cells")->elements())
                cells.push_back(cell);
            const json_t &block =
                *grid.find("aggregate")->find("trace_cache");
            cache.misses += block.find("misses")->asUint();
            cache.hits += block.find("hits")->asUint();
            cache.evictions += block.find("evictions")->asUint();
            cache.streamed_fallbacks +=
                block.find("streamed_fallbacks")->asUint();
        }
        return cells;
    };
    CacheTotals arena_cache, stream_cache; // streaming: all zeros
    const json_t arena_cells = runPerPredictor(true, arena_cache);
    const json_t stream_cells = runPerPredictor(false, stream_cache);

    // CBP5 framework side: same grid through the same pool primitive
    // (cbp5::run owns no global state either).
    struct CbpCell
    {
        bool ok = false;
        std::string error;
        double seconds = 0.0;
        std::uint64_t mispredictions = 0;
    };
    std::vector<CbpCell> cbp_cells(num_preds * num_traces);
    sweep::parallelFor(
        num_preds * num_traces, jobs, [&](std::size_t i) {
            auto cbp_pred = predictors[i / num_traces].make();
            cbp5::MbpAdapter adapter(*cbp_pred);
            cbp5::RunResult run_result =
                cbp5::run(adapter, entries[i % num_traces].btt_gz);
            cbp_cells[i] = {run_result.ok, run_result.error,
                            run_result.seconds,
                            run_result.mispredictions};
        });

    std::printf("\nTable III (top): MBPlib vs the CBP5-style framework "
                "(jobs=%u)\n", jobs);
    bench::rule();
    std::printf("%-13s %-9s %12s %12s %9s\n", "Predictor", "Trace",
                "CBP5", "MBPlib", "Speedup");
    bench::rule();

    // The paper's table is one predictor reading its own trace stream, so
    // the CBP5 comparison uses the streaming grid; the arena grid is
    // reported separately below.
    const json_t &cells = stream_cells;
    std::uint64_t mismatches = 0;
    std::vector<double> arena_avg(num_preds, 0.0);
    std::vector<double> stream_avg(num_preds, 0.0);
    for (std::size_t p = 0; p < num_preds; ++p) {
        std::vector<double> cbp5_times, mbp_times;
        for (std::size_t t = 0; t < num_traces; ++t) {
            const CbpCell &cbp = cbp_cells[p * num_traces + t];
            if (!cbp.ok) {
                std::fprintf(stderr, "cbp5 %s on %s: %s\n",
                             predictors[p].name.c_str(),
                             entries[t].name.c_str(), cbp.error.c_str());
                return 1;
            }
            const json_t &result =
                *cells[p * num_traces + t].find("result");
            if (result.contains("error")) {
                std::fprintf(stderr, "mbplib %s on %s: %s\n",
                             predictors[p].name.c_str(),
                             entries[t].name.c_str(),
                             result.find("error")->asString().c_str());
                return 1;
            }
            const json_t &metrics = *result.find("metrics");
            cbp5_times.push_back(cbp.seconds);
            mbp_times.push_back(
                metrics.find("simulation_time")->asDouble());
            // §VII-C: identical results across simulators.
            if (metrics.find("mispredictions")->asUint() !=
                cbp.mispredictions)
                ++mismatches;
            // ...and across MBPlib's own streaming / in-memory paths.
            const json_t &arena_result =
                *arena_cells[p * num_traces + t].find("result");
            if (arena_result.contains("error") ||
                arena_result.find("metrics")
                        ->find("mispredictions")
                        ->asUint() !=
                    metrics.find("mispredictions")->asUint())
                ++mismatches;
            else
                arena_avg[p] += arena_result.find("metrics")
                                    ->find("simulation_time")
                                    ->asDouble();
            stream_avg[p] += mbp_times.back();
        }
        bench::Rollup cbp = bench::rollup(cbp5_times);
        bench::Rollup mbp_roll = bench::rollup(mbp_times);
        std::printf("%-13s %-9s %12s %12s %8.2fx\n",
                    predictors[p].name.c_str(), "Slowest",
                    bench::formatTime(cbp.slowest).c_str(),
                    bench::formatTime(mbp_roll.slowest).c_str(),
                    mbp_roll.slowest > 0 ? cbp.slowest / mbp_roll.slowest
                                         : 0.0);
        std::printf("%-13s %-9s %12s %12s %8.2fx\n", "", "Average",
                    bench::formatTime(cbp.average).c_str(),
                    bench::formatTime(mbp_roll.average).c_str(),
                    mbp_roll.average > 0 ? cbp.average / mbp_roll.average
                                         : 0.0);
        std::printf("%-13s %-9s %12s %12s %8.2fx\n", "", "Fastest",
                    bench::formatTime(cbp.fastest).c_str(),
                    bench::formatTime(mbp_roll.fastest).c_str(),
                    mbp_roll.fastest > 0 ? cbp.fastest / mbp_roll.fastest
                                         : 0.0);
        bench::rule();
    }
    std::printf("\nDecode-once arena vs streaming (MBPlib, average "
                "simulation_time per trace)\n");
    bench::rule();
    std::printf("%-13s %12s %12s %9s\n", "Predictor", "Streaming",
                "Arena", "Speedup");
    bench::rule();
    for (std::size_t p = 0; p < num_preds; ++p) {
        double stream_s = stream_avg[p] / double(num_traces);
        double arena_s = arena_avg[p] / double(num_traces);
        std::printf("%-13s %12s %12s %8.2fx\n",
                    predictors[p].name.c_str(),
                    bench::formatTime(stream_s).c_str(),
                    bench::formatTime(arena_s).c_str(),
                    arena_s > 0 ? stream_s / arena_s : 0.0);
    }
    std::printf("trace_cache (arena campaigns): %llu misses, %llu hits, "
                "%llu evictions, %llu streamed fallbacks\n",
                (unsigned long long)arena_cache.misses,
                (unsigned long long)arena_cache.hits,
                (unsigned long long)arena_cache.evictions,
                (unsigned long long)arena_cache.streamed_fallbacks);
    bench::rule();

    double bench_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      bench_start)
            .count();
    std::printf("grid wall time: %s for %zu cells x 2 simulators "
                "(jobs=%u)\n",
                bench::formatTime(bench_seconds).c_str(),
                num_preds * num_traces, jobs);
    if (mismatches == 0) {
        std::printf("section VII-C check: identical MPKI between MBPlib and "
                    "the CBP5 framework on every run\n");
    } else {
        std::printf("section VII-C check FAILED: %llu mismatching runs\n",
                    (unsigned long long)mismatches);
        return 1;
    }
    return 0;
}
