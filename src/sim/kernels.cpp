/**
 * @file
 * The driver behind every conditional simulator: simulate() and
 * simulateFused() are its one-kernel case, compare(), simulateMany() and
 * their fused forms its N-kernel case.
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
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "mbp/sim/detail/sim_core.hpp"

namespace mbp
{

namespace
{

/** A finished run, as the document builders read it. */
struct RunDoc
{
    const char *name;
    const SimArgs &args;
    std::uint64_t simulation_instr;
    bool exhausted;
    std::uint64_t static_branches;
    std::uint64_t dynamic_cond;
    std::uint64_t dynamic_branches;
    std::size_t num_sites;         // entries of every tally's site_mis
    const std::uint64_t *site_ips; // site id -> address
    const std::uint64_t *site_occ; // site id -> measured occurrences
    detail::Throughput tp;
};

using DocBuilder = json_t (*)(const RunDoc &,
                              const std::vector<BlockKernel *> &,
                              const std::vector<KernelTally> &);

/** A site in a most_failed ranking. */
struct RankedSite
{
    std::uint64_t key; // the ranking key (descending)
    std::uint64_t ip;  // the tie break (ascending), kept inline for sort
    std::uint32_t site;
};

/** The sites whose @p key is non-zero, ranked; a total order. */
template <typename Key>
std::vector<RankedSite>
rankSites(const RunDoc &run, Key key)
{
    std::vector<RankedSite> ranked;
    for (std::uint32_t s = 0; s < run.num_sites; ++s) {
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

/** A kernel's metadata_stats() plus its storage_bits. */
json_t
predictorMetadata(const BlockKernel &kernel)
{
    json_t md = kernel.metadata_stats();
    // Budget accounting: a design that reports its storage — via a
    // non-zero storageBits() or a declared (possibly zero-total)
    // component tree — gets the number, including a true 0 for
    // storage-free designs; one that reports nothing gets an explicit
    // null so "unreported" can never be mistaken for "zero-cost".
    if (kernel.reportsStorage())
        md["storage_bits"] = kernel.storageBits();
    else
        md["storage_bits"] = nullptr;
    return md;
}

/** The simulate() document. */
json_t
simulateDoc(const RunDoc &run, const std::vector<BlockKernel *> &kernels,
            const std::vector<KernelTally> &tallies)
{
    const SimArgs &args = run.args;
    const KernelTally &tally = tallies[0];
    json_t result = json_t::object();
    result["metadata"] = detail::makeMetadata(
        run.name, args, run.simulation_instr, run.exhausted,
        run.dynamic_cond, run.static_branches);
    result["metadata"]["predictor"] = predictorMetadata(*kernels[0]);
    json_t metrics = json_t::object({
        {"mpki", detail::mpkiOf(tally.mispredictions, run.simulation_instr)},
        {"mispredictions", tally.mispredictions},
        {"accuracy",
         detail::accuracyOf(tally.mispredictions, run.dynamic_cond)},
    });

    // num_most_failed_branches is the minimum number of branches that
    // account, on their own, for half of the mispredictions. Without
    // per-branch collection the ranking has no data, so both the metric
    // and the most_failed section are omitted entirely rather than
    // reported as a misleading hard zero.
    json_t most_failed = json_t::array();
    if (args.collect_most_failed) {
        const auto ranked = rankSites(
            run, [&](std::uint32_t s) { return tally.site_mis[s]; });
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

    detail::addThroughputMetrics(metrics, run.dynamic_branches, run.tp);
    result["metrics"] = std::move(metrics);
    result["predictor_statistics"] = kernels[0]->execution_stats();
    if (args.collect_most_failed)
        result["most_failed"] = std::move(most_failed);
    return result;
}

/** The compare()/simulateMany() document. */
json_t
manyDoc(const RunDoc &run, const std::vector<BlockKernel *> &kernels,
        const std::vector<KernelTally> &tallies)
{
    const SimArgs &args = run.args;
    const std::size_t n = kernels.size();
    const std::uint64_t instr = run.simulation_instr;

    // Rank by the spread in mispredictions (max − min across predictors):
    // the branches whose predictability changed the most between designs.
    // For two predictors this is exactly compare()'s absolute difference.
    json_t most_failed = json_t::array();
    if (args.collect_most_failed) {
        const auto ranked = rankSites(run, [&](std::uint32_t s) {
            std::uint64_t lo = tallies[0].site_mis[s], hi = lo;
            for (const KernelTally &t : tallies) {
                lo = std::min(lo, t.site_mis[s]);
                hi = std::max(hi, t.site_mis[s]);
            }
            return hi - lo;
        });
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
    result["metadata"] =
        detail::makeMetadata(run.name, args, instr, run.exhausted,
                             run.dynamic_cond, run.static_branches);
    for (std::size_t k = 0; k < n; ++k)
        result["metadata"]["predictor_" + std::to_string(k)] =
            predictorMetadata(*kernels[k]);
    json_t metrics = json_t::object();
    for (std::size_t k = 0; k < n; ++k)
        metrics["mpki_" + std::to_string(k)] =
            detail::mpkiOf(tallies[k].mispredictions, instr);
    for (std::size_t k = 0; k < n; ++k)
        metrics["mispredictions_" + std::to_string(k)] =
            tallies[k].mispredictions;
    for (std::size_t k = 0; k < n; ++k)
        metrics["accuracy_" + std::to_string(k)] =
            detail::accuracyOf(tallies[k].mispredictions, run.dynamic_cond);
    detail::addThroughputMetrics(metrics, run.dynamic_branches, run.tp);
    result["metrics"] = std::move(metrics);
    for (std::size_t k = 0; k < n; ++k)
        result["predictor_statistics_" + std::to_string(k)] =
            kernels[k]->execution_stats();
    if (args.collect_most_failed)
        result["most_failed"] = std::move(most_failed);
    return result;
}

/**
 * Fires the prediction hook for every conditional row of @p block,
 * branch-major with the kernel index ascending; kernel k's guesses start
 * at @p guesses + k * kKernelBlockBranches.
 */
void
replayHook(const SimArgs &args, const KernelBlock &block, std::size_t n,
           const std::uint8_t *guesses)
{
    const sbbt::BranchColumns &c = block.columns;
    for (std::size_t i = 0; i < c.size; ++i) {
        const std::uint8_t m = c.meta[i];
        if ((m & 0x01) == 0)
            continue;
        const Branch b{c.ip[i], c.target[i], OpCode(m & 0x0f),
                       (m & 0x10) != 0};
        for (std::size_t k = 0; k < n; ++k)
            args.prediction_hook(b, guesses[k * kKernelBlockBranches + i] != 0,
                                 c.instr[i], i >= block.mid, k);
    }
}

json_t
runBlocks(const char *kName, const std::vector<BlockKernel *> &kernels,
          const SimArgs &args, DocBuilder build)
{
    if (kernels.empty())
        return detail::errorResult(kName, args,
                                   "no predictors to simulate");
    for (const BlockKernel *kernel : kernels) {
        if (kernel == nullptr)
            return detail::errorResult(kName, args, "null predictor");
    }
    detail::BlockSource source;
    std::string error;
    if (!source.open(args, error))
        return detail::errorResult(kName, args, error);

    const std::size_t n = kernels.size();
    const bool hook = static_cast<bool>(args.prediction_hook);
    // A run that steps every branch of the trace, all measured, reads
    // the decode-time per-site occurrence totals; any other counts its
    // measured window as it goes.
    const bool count_occ =
        args.collect_most_failed &&
        (args.warmup_instr != 0 ||
         detail::instrLimit(args) != std::numeric_limits<std::uint64_t>::max());
    detail::RunTotals run(args);
    std::vector<KernelTally> tallies(n);
    std::vector<std::uint64_t> site_occ;
    std::vector<std::uint8_t> guesses(hook ? n * kKernelBlockBranches : 0);
    KernelBlock block;
    block.track_all = !args.track_only_conditional;
    block.collect = args.collect_most_failed;
    // Kernels sharing a block evict each other's counter lines between
    // blocks; a lone kernel's stay resident.
    block.prefetch = n > 1;

    auto start_time = std::chrono::steady_clock::now();
    while (!run.stopped && source.next(block.columns)) {
        const auto [mid, stop] = run.split(block.columns);
        block.columns.size = stop;
        block.mid = mid;
        block.site_ips = source.siteIpData();
        block.num_sites = source.numSites();
        for (std::size_t k = 0; k < n; ++k) {
            if (hook)
                block.guesses = guesses.data() + k * kKernelBlockBranches;
            kernels[k]->runBlock(block, tallies[k]);
        }
        if (count_occ) {
            site_occ.resize(block.num_sites);
            for (std::size_t i = mid; i < stop; ++i)
                site_occ[block.columns.site[i]] +=
                    block.columns.meta[i] & 0x01;
        }
        if (hook)
            replayHook(args, block, n, guesses.data());
    }
    auto end_time = std::chrono::steady_clock::now();
    double seconds =
        std::chrono::duration<double>(end_time - start_time).count();

    if (!source.error().empty())
        return detail::errorResult(kName, args, source.error());

    const RunDoc doc{kName,
                     args,
                     run.simulationInstr(args, source.header()),
                     run.exhausted(),
                     run.static_branches,
                     tallies[0].dynamic_cond,
                     run.dynamic_branches,
                     tallies[0].site_mis.size(),
                     source.siteIpData(),
                     count_occ ? site_occ.data() : source.siteCondOccData(),
                     source.throughput(seconds)};
    return build(doc, kernels, tallies);
}

} // namespace

json_t
detail::simulateKernel(BlockKernel &kernel, const SimArgs &args)
{
    return runBlocks(detail::kStdSimulatorName, {&kernel}, args,
                     simulateDoc);
}

json_t
simulateManyFused(const std::vector<BlockKernel *> &kernels,
                  const SimArgs &args)
{
    return runBlocks(detail::kMultiSimulatorName, kernels, args, manyDoc);
}

json_t
compareFused(BlockKernel &a, BlockKernel &b, const SimArgs &args)
{
    return runBlocks(detail::kCompareSimulatorName, {&a, &b}, args,
                     manyDoc);
}

} // namespace mbp
