/**
 * @file
 * The one driver in the library: simulate() and simulateFused() are its
 * one-kernel case, compare(), simulateMany() and their fused forms its
 * N-kernel case, detail::simulateEach (a sweep's pass) its N-kernel
 * case with one simulate() document per kernel. A FrontEnd is one more
 * kernel: the front end's simulators take these same documents
 * (detail::simulateDoc/manyDoc) and add their per-class sections.
 *
 * Per block of up to kKernelBlockBranches branches, the driver books the
 * warmup/limit split (detail::RunTotals) and calls each kernel's
 * runBlock, which steps its predictor and counts its own measured
 * conditionals, mispredictions and per-site mispredictions. The driver
 * keeps what no kernel owns: a windowed run's per-site occurrence count
 * and, on hooked runs, the prediction hook, replayed from the kernels'
 * guesses after the block's train/track, branch-major with the predictor
 * index ascending — one rule for every entry point.
 */
#include "mbp/sim/kernels.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "mbp/sim/detail/sim_core.hpp"

namespace mbp
{

namespace
{

using detail::RunDoc;

/** A site in a most_failed ranking. */
struct RankedSite
{
    std::uint64_t key; // the ranking key (descending)
    std::uint64_t ip;  // the tie break (ascending), kept inline for sort
    std::uint32_t site;
};

/** The first @p num_sites sites whose @p key is non-zero, ranked; a
 *  total order. */
template <typename Key>
std::vector<RankedSite>
rankSites(const RunDoc &run, std::size_t num_sites, Key key)
{
    std::vector<RankedSite> ranked;
    for (std::uint32_t s = 0; s < num_sites; ++s) {
        if (const std::uint64_t k = key(s); k > 0)
            ranked.push_back({k, run.site_ips[s], s});
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const RankedSite &x, const RankedSite &y) {
                  if (x.key != y.key)
                      return x.key > y.key;
                  return x.ip < y.ip;
              });
    return ranked;
}

} // namespace

json_t
detail::simulateDoc(const RunDoc &run, std::size_t k,
                    const BlockKernel &kernel)
{
    const SimArgs &args = run.args;
    const KernelTally &tally = run.tallies[k];
    json_t result = json_t::object();
    result["metadata"] = detail::makeMetadata(
        run.name, args, run.simulation_instr, run.exhausted,
        tally.dynamic_cond, run.static_branches);
    result["metadata"]["predictor"] = detail::predictorMetadata(kernel);
    json_t metrics = json_t::object({
        {"mpki", detail::mpkiOf(tally.mispredictions, run.simulation_instr)},
        {"mispredictions", tally.mispredictions},
        {"accuracy",
         detail::accuracyOf(tally.mispredictions, tally.dynamic_cond)},
    });

    // num_most_failed_branches is the minimum number of branches that
    // account, on their own, for half of the mispredictions. Without
    // per-branch collection the ranking has no data, so both the metric
    // and the most_failed section are omitted entirely rather than
    // reported as a misleading hard zero.
    json_t most_failed = json_t::array();
    if (args.collect_most_failed) {
        const auto ranked =
            rankSites(run, tally.site_mis.size(),
                      [&](std::uint32_t s) { return tally.site_mis[s]; });
        const std::uint64_t half = (tally.mispredictions + 1) / 2;
        std::uint64_t running = 0;
        std::size_t num_most_failed = 0;
        while (num_most_failed < ranked.size() && running < half)
            running += ranked[num_most_failed++].key;
        for (std::size_t i = 0;
             i < std::min(num_most_failed, args.most_failed_cap); ++i) {
            const auto [mis, ip, s] = ranked[i];
            most_failed.push_back(json_t::object({
                {"ip", ip},
                {"occurrences", run.site_occ[s]},
                {"mpki", detail::mpkiOf(mis, run.simulation_instr)},
                {"accuracy", detail::accuracyOf(mis, run.site_occ[s])},
            }));
        }
        metrics["num_most_failed_branches"] =
            std::uint64_t(num_most_failed);
    }

    detail::addThroughputMetrics(metrics, run.dynamic_branches,
                                 detail::throughputOf(run, k));
    result["metrics"] = std::move(metrics);
    result["predictor_statistics"] = kernel.execution_stats();
    if (args.collect_most_failed)
        result["most_failed"] = std::move(most_failed);
    return result;
}

json_t
detail::manyDoc(const RunDoc &run, const std::vector<BlockKernel *> &kernels)
{
    const SimArgs &args = run.args;
    const std::vector<KernelTally> &tallies = run.tallies;
    const std::size_t n = kernels.size();
    const std::uint64_t instr = run.simulation_instr;

    // Rank by the spread in mispredictions (max − min across predictors):
    // the branches whose predictability changed the most between designs.
    // For two predictors this is exactly compare()'s absolute difference.
    json_t most_failed = json_t::array();
    if (args.collect_most_failed) {
        const auto siteSpread = [&](std::uint32_t s) {
            std::uint64_t lo = tallies[0].site_mis[s], hi = lo;
            for (const KernelTally &t : tallies) {
                lo = std::min(lo, t.site_mis[s]);
                hi = std::max(hi, t.site_mis[s]);
            }
            return hi - lo;
        };
        const auto ranked =
            rankSites(run, tallies[0].site_mis.size(), siteSpread);
        for (std::size_t i = 0;
             i < std::min(ranked.size(), args.most_failed_cap); ++i) {
            const auto [spread, ip, s] = ranked[i];
            json_t entry = json_t::object({
                {"ip", ip},
                {"occurrences", run.site_occ[s]},
            });
            for (std::size_t k = 0; k < n; ++k)
                entry["mpki_" + std::to_string(k)] =
                    detail::mpkiOf(tallies[k].site_mis[s], instr);
            if (n == 2) {
                entry["mpki_diff"] =
                    detail::mpkiOf(tallies[0].site_mis[s], instr) -
                    detail::mpkiOf(tallies[1].site_mis[s], instr);
            } else {
                entry["mpki_spread"] = detail::mpkiOf(spread, instr);
            }
            most_failed.push_back(std::move(entry));
        }
    }

    json_t result = json_t::object();
    result["metadata"] = detail::makeMetadata(
        run.name, args, instr, run.exhausted, tallies[0].dynamic_cond,
        run.static_branches);
    for (std::size_t k = 0; k < n; ++k)
        result["metadata"]["predictor_" + std::to_string(k)] =
            detail::predictorMetadata(*kernels[k]);
    json_t metrics = json_t::object();
    for (std::size_t k = 0; k < n; ++k)
        metrics["mpki_" + std::to_string(k)] =
            detail::mpkiOf(tallies[k].mispredictions, instr);
    for (std::size_t k = 0; k < n; ++k)
        metrics["mispredictions_" + std::to_string(k)] =
            tallies[k].mispredictions;
    for (std::size_t k = 0; k < n; ++k)
        metrics["accuracy_" + std::to_string(k)] =
            detail::accuracyOf(tallies[k].mispredictions,
                               tallies[k].dynamic_cond);
    detail::addThroughputMetrics(metrics, run.dynamic_branches, run.tp);
    result["metrics"] = std::move(metrics);
    for (std::size_t k = 0; k < n; ++k)
        result["predictor_statistics_" + std::to_string(k)] =
            kernels[k]->execution_stats();
    if (args.collect_most_failed)
        result["most_failed"] = std::move(most_failed);
    return result;
}

namespace
{

/**
 * Fires the prediction hook for every conditional row of @p block,
 * branch-major with the kernel index ascending, for every kernel not
 * retired; kernel k's guesses start at @p guesses + k *
 * kKernelBlockBranches.
 */
void
replayHook(const SimArgs &args, const KernelBlock &block,
           const std::vector<std::exception_ptr> &retired,
           const std::uint8_t *guesses)
{
    const sbbt::BranchColumns &c = block.columns;
    for (std::size_t i = 0; i < c.size; ++i) {
        const std::uint8_t m = c.meta[i];
        if ((m & 0x01) == 0)
            continue;
        const Branch b{c.ip[i], c.target[i], OpCode(m & 0x0f),
                       (m & 0x10) != 0};
        for (std::size_t k = 0; k < retired.size(); ++k) {
            if (!retired[k])
                args.prediction_hook(
                    b, guesses[k * kKernelBlockBranches + i] != 0,
                    c.instr[i], i >= block.mid, k);
        }
    }
}

/** How runBlocks steps its kernels. */
enum class Stepping
{
    /** One run over all of them (runJoined): a kernel that throws ends
     *  the run. */
    kJoined,
    /** Independent runs that share the trace's blocks (runEach, a sweep
     *  pass): a kernel that throws is retired alone. */
    kEach,
};

/**
 * Steps @p kernels through the run of @p args block by block and returns
 * what @p build makes of the finished run, or of one that could not open
 * or read its trace (run.error says why). Each kernel's runBlock calls
 * are timed. Under Stepping::kEach a kernel that throws is retired, its
 * exception kept in run.retired, and the others run on — to the end of
 * the trace, or until none is left.
 */
template <typename Build>
auto
runBlocks(const char *kName, const std::vector<BlockKernel *> &kernels,
          const SimArgs &args, Stepping stepping, Build build)
{
    const std::size_t n = kernels.size();
    RunDoc run(kName, args, n);
    if (n == 0)
        run.error = "no predictors to simulate";
    for (const BlockKernel *kernel : kernels) {
        if (kernel == nullptr)
            run.error = "null predictor";
    }
    detail::BlockSource source;
    if (!run.error.empty() || !source.open(args, run.error))
        return build(run);

    const bool hook = static_cast<bool>(args.prediction_hook);
    // A run that steps every branch of the trace, all measured, reads
    // the decode-time per-site occurrence totals; any other counts its
    // measured window as it goes.
    const bool count_occ =
        args.collect_most_failed &&
        (args.warmup_instr != 0 ||
         detail::instrLimit(args) != std::numeric_limits<std::uint64_t>::max());
    detail::RunTotals totals(args);
    std::vector<std::uint64_t> site_occ;
    std::vector<std::uint8_t> guesses(hook ? n * kKernelBlockBranches : 0);
    KernelBlock block;
    block.track_all = !args.track_only_conditional;
    block.collect = args.collect_most_failed;

    std::size_t live = n;
    auto start_time = std::chrono::steady_clock::now();
    while (live > 0 && !totals.stopped && source.next(block.columns)) {
        const auto [mid, stop] = totals.split(block.columns);
        block.columns.size = stop;
        block.mid = mid;
        block.site_ips = source.siteIpData();
        block.num_sites = source.numSites();
        for (std::size_t k = 0; k < n; ++k) {
            if (run.retired[k])
                continue;
            if (hook)
                block.guesses = guesses.data() + k * kKernelBlockBranches;
            const auto kernel_start = std::chrono::steady_clock::now();
            try {
                kernels[k]->runBlock(block, run.tallies[k]);
            } catch (...) {
                if (stepping == Stepping::kJoined)
                    throw;
                run.retired[k] = std::current_exception();
                --live;
            }
            run.kernel_seconds[k] += std::chrono::duration<double>(
                                         std::chrono::steady_clock::now() -
                                         kernel_start)
                                         .count();
        }
        if (count_occ) {
            site_occ.resize(block.num_sites);
            for (std::size_t i = mid; i < stop; ++i)
                site_occ[block.columns.site[i]] +=
                    block.columns.meta[i] & 0x01;
        }
        if (hook)
            replayHook(args, block, run.retired, guesses.data());
    }
    auto end_time = std::chrono::steady_clock::now();
    double seconds =
        std::chrono::duration<double>(end_time - start_time).count();

    run.error = source.error();
    run.simulation_instr = totals.simulationInstr(args, source.header());
    run.exhausted = totals.exhausted();
    run.static_branches = totals.static_branches;
    run.dynamic_branches = totals.dynamic_branches;
    run.site_ips = source.siteIpData();
    run.site_occ = count_occ ? site_occ.data() : source.siteCondOccData();
    run.tp = source.throughput(seconds);
    return build(run);
}

} // namespace

json_t
detail::runJoined(const char *name, const std::vector<BlockKernel *> &kernels,
                  const SimArgs &args,
                  const std::function<json_t(const RunDoc &)> &doc)
{
    return runBlocks(name, kernels, args, Stepping::kJoined,
                     [&](const RunDoc &run) {
                         return run.error.empty()
                                    ? doc(run)
                                    : errorResult(name, args, run.error);
                     });
}

json_t
detail::simulateKernel(BlockKernel &kernel, const SimArgs &args)
{
    return runJoined(kStdSimulatorName, {&kernel}, args,
                     [&](const RunDoc &run) {
                         return simulateDoc(run, 0, kernel);
                     });
}

detail::Throughput
detail::throughputOf(const RunDoc &run, std::size_t k)
{
    double stepping = 0.0;
    for (const double seconds : run.kernel_seconds)
        stepping += seconds;
    Throughput tp = run.tp;
    tp.seconds = run.kernel_seconds[k] +
                 (run.tp.seconds - stepping) /
                     static_cast<double>(run.kernel_seconds.size());
    return tp;
}

std::vector<json_t>
detail::runEach(const char *name, const std::vector<BlockKernel *> &kernels,
                const SimArgs &args,
                const std::function<json_t(const RunDoc &, std::size_t)> &doc)
{
    return runBlocks(
        name, kernels, args, Stepping::kEach, [&](const RunDoc &run) {
            std::vector<json_t> docs;
            docs.reserve(kernels.size());
            for (std::size_t k = 0; k < kernels.size(); ++k) {
                if (run.retired[k]) {
                    docs.push_back(exceptionResult(run.retired[k]));
                } else if (!run.error.empty()) {
                    docs.push_back(errorResult(name, args, run.error));
                } else {
                    try {
                        docs.push_back(doc(run, k));
                    } catch (...) {
                        docs.push_back(
                            exceptionResult(std::current_exception()));
                    }
                }
            }
            return docs;
        });
}

std::vector<json_t>
detail::simulateEach(const std::vector<BlockKernel *> &kernels,
                     const SimArgs &args)
{
    return runEach(kStdSimulatorName, kernels, args,
                   [&](const RunDoc &run, std::size_t k) {
                       return simulateDoc(run, k, *kernels[k]);
                   });
}

json_t
detail::exceptionResult(std::exception_ptr failure)
{
    std::string what = "unknown exception";
    try {
        std::rethrow_exception(failure);
    } catch (const std::exception &e) {
        what = e.what();
    } catch (...) {
    }
    return json_t::object({{"error", "exception: " + what}});
}

json_t
simulateManyFused(const std::vector<BlockKernel *> &kernels,
                  const SimArgs &args)
{
    return detail::runJoined(
        detail::kMultiSimulatorName, kernels, args,
        [&](const RunDoc &run) { return detail::manyDoc(run, kernels); });
}

json_t
compareFused(BlockKernel &a, BlockKernel &b, const SimArgs &args)
{
    const std::vector<BlockKernel *> kernels{&a, &b};
    return detail::runJoined(
        detail::kCompareSimulatorName, kernels, args,
        [&](const RunDoc &run) { return detail::manyDoc(run, kernels); });
}

} // namespace mbp
