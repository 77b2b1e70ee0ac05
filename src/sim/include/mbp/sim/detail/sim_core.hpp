/**
 * @file
 * Shared internals of the simulator family: accounting structures, the
 * report builders, and the per-branch hot loops.
 *
 * Every simulator flavor — simulate()/compare()/simulateMany() over the
 * streaming reader or the arena cursor, and the fused block kernels of
 * mbp/sim/kernels.hpp — funnels through the helpers in this header, so
 * the output documents and the warmup/limit accounting cannot drift
 * apart between paths. The hot loops are templated on:
 *
 *  - the trace source (mbp::TraceSource),
 *  - the predictor type (the virtual mbp::Predictor base *or* a concrete
 *    PredictorLike type, which devirtualizes predict/train/track), and
 *  - two compile-time booleans, kHook and kCollect, so the
 *    hook-invocation and per-branch-statistics code is absent — not
 *    branched over — in the configurations that do not use it.
 *
 * This is an internal header: everything in mbp::detail may change
 * between versions. User code should stick to mbp/sim/simulator.hpp and
 * mbp/sim/kernels.hpp.
 */
#ifndef MBP_SIM_DETAIL_SIM_CORE_HPP
#define MBP_SIM_DETAIL_SIM_CORE_HPP

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "mbp/json/json.hpp"
#include "mbp/sbbt/mem_trace.hpp"
#include "mbp/sbbt/reader.hpp"
#include "mbp/sim/concepts.hpp"
#include "mbp/sim/simulator.hpp"
#include "mbp/utils/flat_hash_map.hpp"

namespace mbp::detail
{

// Simulator display names are part of the output contract: the fused
// kernels must emit documents byte-identical (modulo timing) to the
// virtual paths, so both share these constants.
inline constexpr const char *kStdSimulatorName = "MBPlib std simulator";
inline constexpr const char *kCompareSimulatorName =
    "MBPlib comparison simulator";
inline constexpr const char *kMultiSimulatorName = "MBPlib multi simulator";

/** Per-static-branch accounting for the most_failed ranking. */
struct BranchStat
{
    std::uint64_t occurrences = 0; // measured conditional executions
    std::uint64_t mispredictions_a = 0;
    std::uint64_t mispredictions_b = 0; // unused by simulate()
};

/** Branch-site bookkeeping shared by every streaming simulator flavor. */
struct SiteAccounting
{
    std::uint64_t static_branches = 0; // distinct branch IPs (any opcode)
    std::uint64_t dynamic_cond = 0;    // measured conditional executions
    std::uint64_t dynamic_branches = 0;

    // Tracks uniqueness of *all* branch sites, including unconditional
    // ones, which never get a per-branch stats entry otherwise. The
    // arena kernels skip this map entirely: the site census is
    // precomputed at decode (sbbt::MemTrace::staticSitesInPrefix).
    util::FlatHashMap<char> seen_ips;

    void
    noteBranchSite(std::uint64_t ip)
    {
        char &mark = seen_ips[ip];
        if (mark == 0) {
            mark = 1;
            ++static_branches;
        }
    }
};

/** State of a single-predictor simulate() run. */
struct RunAccounting : SiteAccounting
{
    util::FlatHashMap<BranchStat> per_branch;
    std::uint64_t mispredictions_a = 0;
};

/** How the hot loop ended: last branch seen, plus any loop-level error. */
struct RunWindow
{
    std::uint64_t last_instr = 0;
    std::string error;
};

/** Timing/throughput observability fields of a finished run. */
struct Throughput
{
    double seconds = 0.0;
    std::uint64_t decompressed_bytes = 0;
    double prefetch_stall_seconds = 0.0;
    double load_seconds = 0.0;
};

/**
 * The per-branch ranking keys rows by a 32-bit slot (row index + 1);
 * a trace with this many distinct *measured* conditional sites cannot be
 * ranked without corrupting the indexes, so the run fails loudly
 * instead (testable via rowIndexWouldOverflow below).
 */
inline constexpr std::uint64_t kMaxRankedSites =
    std::numeric_limits<std::uint32_t>::max();

inline constexpr const char *kSiteOverflowError =
    "most_failed ranking overflow: 2^32-1 distinct measured branch sites; "
    "rerun with collect_most_failed disabled";

/** Whether allocating one more ranking row would wrap the 32-bit slot. */
constexpr bool
rowIndexWouldOverflow(std::size_t existing_rows)
{
    // The slot stores row + 1 (0 is the "no row" sentinel), so the last
    // representable row index is 2^32 - 2.
    return existing_rows >= kMaxRankedSites;
}

/** Whether the flat stats array (stride words per row) would overflow. */
constexpr bool
rowAllocWouldOverflow(std::size_t existing_rows, std::size_t stride)
{
    if (stride == 0)
        return false;
    return existing_rows >
           std::numeric_limits<std::size_t>::max() / stride - 1;
}

inline json_t
makeMetadata(const char *simulator_name, const SimArgs &args,
             std::uint64_t simulation_instr, bool exhausted,
             std::uint64_t dynamic_cond, std::uint64_t static_branches)
{
    return json_t::object({
        {"simulator", simulator_name},
        {"version", kMbpVersion},
        {"trace", args.trace_path},
        {"warmup_instr", args.warmup_instr},
        {"simulation_instr", simulation_instr},
        {"exhausted_trace", exhausted},
        {"num_conditional_branches", dynamic_cond},
        {"num_branch_instructions", static_branches},
        {"track_only_conditional", args.track_only_conditional},
    });
}

inline json_t
errorResult(const char *simulator_name, const SimArgs &args,
            const std::string &message)
{
    return json_t::object({
        {"metadata", json_t::object({{"simulator", simulator_name},
                                     {"version", kMbpVersion},
                                     {"trace", args.trace_path}})},
        {"error", message},
    });
}

inline double
mpkiOf(std::uint64_t mispredictions, std::uint64_t instructions)
{
    return instructions == 0
               ? 0.0
               : static_cast<double>(mispredictions) /
                     (static_cast<double>(instructions) / 1000.0);
}

inline double
accuracyOf(std::uint64_t mispredictions, std::uint64_t executions)
{
    return executions == 0
               ? 1.0
               : 1.0 - static_cast<double>(mispredictions) /
                           static_cast<double>(executions);
}

inline sbbt::ReaderOptions
readerOptions(const SimArgs &args)
{
    sbbt::ReaderOptions options;
    options.block_packets = args.reader_block_packets;
    options.prefetch = args.prefetch;
    return options;
}

/**
 * Instruction number (inclusive) at which a run stops: warmup plus the
 * simulation budget, saturating so sim_instr = "unlimited" never wraps.
 * Shared by all simulator flavors so their measurement windows cannot
 * drift apart.
 */
inline std::uint64_t
instrLimit(const SimArgs &args)
{
    return args.sim_instr >= std::numeric_limits<std::uint64_t>::max() -
                                 args.warmup_instr
               ? std::numeric_limits<std::uint64_t>::max()
               : args.warmup_instr + args.sim_instr;
}

/**
 * Measured (post-warmup) instruction count of a finished run. An
 * exhausted trace is credited with its full header instruction count
 * (the tail after the last branch has no packet of its own); a
 * limit-stopped run is clamped to the limit.
 */
inline std::uint64_t
measuredInstr(const SimArgs &args, std::uint64_t header_instr,
              bool exhausted, std::uint64_t last_instr, std::uint64_t limit)
{
    std::uint64_t end_instr = exhausted
                                  ? std::max(header_instr, last_instr)
                                  : std::min(last_instr, limit);
    return end_instr > args.warmup_instr ? end_instr - args.warmup_instr
                                         : 0;
}

/**
 * Appends the per-run throughput observability fields shared by all
 * simulator flavors to @p metrics: `dynamic_branches`, the count of
 * branches the run stepped (warm-up included), as a number rather than
 * only as the rate it feeds. `trace_load_seconds` is the one-time
 * arena decode cost (0 when streaming, or when the arena arrived
 * pre-decoded via SimArgs::preloaded); it is deliberately kept outside
 * `simulation_time` so branches_per_second measures the predict loop.
 */
inline void
addThroughputMetrics(json_t &metrics, std::uint64_t dynamic_branches,
                     const Throughput &tp)
{
    metrics["dynamic_branches"] = dynamic_branches;
    metrics["simulation_time"] = tp.seconds;
    metrics["branches_per_second"] =
        tp.seconds > 0.0
            ? static_cast<double>(dynamic_branches) / tp.seconds
            : 0.0;
    metrics["decompressed_bytes"] = tp.decompressed_bytes;
    metrics["prefetch_stall_seconds"] = tp.prefetch_stall_seconds;
    metrics["trace_load_seconds"] = tp.load_seconds;
}

/**
 * Whether @p predictor reports its storage cost at all: either through a
 * declared component tree or a non-zero storageBits(). Works for the
 * virtual Predictor base (which has reportsStorage()) and for any
 * PredictorLike or BlockKernel shape.
 */
template <typename P>
inline bool
reportsStorageOf(const P &predictor)
{
    if constexpr (requires {
                      {
                          predictor.reportsStorage()
                      } -> std::convertible_to<bool>;
                  }) {
        return predictor.reportsStorage();
    } else {
        return predictor.storage_components().has_value() ||
               predictor.storageBits() != 0;
    }
}

/**
 * Sorts the (ip, stats) rows by primary misprediction count, with the ip
 * as a deterministic tie break. Callers pass only rows with
 * mispredictions_a > 0; the order is then a total order regardless of
 * which container (hash map or dense site array) produced the rows, so
 * every path ranks identically.
 */
inline void
rankByMispredictions(
    std::vector<std::pair<std::uint64_t, BranchStat>> &rows)
{
    std::sort(rows.begin(), rows.end(), [](const auto &x, const auto &y) {
        if (x.second.mispredictions_a != y.second.mispredictions_a)
            return x.second.mispredictions_a > y.second.mispredictions_a;
        return x.first < y.first; // deterministic tie break
    });
}

/**
 * Assembles the simulate() document from the finished run's raw counts.
 * @p rows holds the per-branch stats of every measured conditional site
 * with at least one misprediction (any order; ranked here). Shared by
 * the virtual cores and the fused arena kernel so both emit the same
 * document for the same run.
 */
template <typename P>
inline json_t
buildSimulateDoc(const char *kName, P &predictor, const SimArgs &args,
                 std::uint64_t simulation_instr, bool exhausted,
                 std::uint64_t static_branches, std::uint64_t dynamic_cond,
                 std::uint64_t dynamic_branches,
                 std::uint64_t mispredictions,
                 std::vector<std::pair<std::uint64_t, BranchStat>> rows,
                 const Throughput &tp)
{
    json_t result = json_t::object();
    result["metadata"] = makeMetadata(kName, args, simulation_instr,
                                      exhausted, dynamic_cond,
                                      static_branches);
    result["metadata"]["predictor"] = predictor.metadata_stats();
    // Budget accounting: a design that reports its storage — via a
    // non-zero storageBits() or a declared (possibly zero-total)
    // component tree — gets the number, including a true 0 for
    // storage-free designs; one that reports nothing gets an explicit
    // null so "unreported" can never be mistaken for "zero-cost".
    if (reportsStorageOf(predictor))
        result["metadata"]["predictor"]["storage_bits"] =
            predictor.storageBits();
    else
        result["metadata"]["predictor"]["storage_bits"] = nullptr;
    json_t metrics = json_t::object({
        {"mpki", mpkiOf(mispredictions, simulation_instr)},
        {"mispredictions", mispredictions},
        {"accuracy", accuracyOf(mispredictions, dynamic_cond)},
    });

    // Rank branches; num_most_failed_branches is the minimum number of
    // branches that account, on their own, for half of the mispredictions.
    // Without per-branch collection the ranking has no data, so both the
    // metric and the most_failed section are omitted entirely rather than
    // reported as a misleading hard zero.
    json_t most_failed = json_t::array();
    if (args.collect_most_failed) {
        rankByMispredictions(rows);
        std::uint64_t half = (mispredictions + 1) / 2;
        std::uint64_t running = 0;
        std::size_t num_most_failed = 0;
        while (num_most_failed < rows.size() && running < half)
            running += rows[num_most_failed++].second.mispredictions_a;
        for (std::size_t i = 0;
             i < std::min(num_most_failed, args.most_failed_cap); ++i) {
            const auto &[ip, stat] = rows[i];
            most_failed.push_back(json_t::object({
                {"ip", ip},
                {"occurrences", stat.occurrences},
                {"mpki", mpkiOf(stat.mispredictions_a, simulation_instr)},
                {"accuracy",
                 accuracyOf(stat.mispredictions_a, stat.occurrences)},
            }));
        }
        metrics["num_most_failed_branches"] =
            std::uint64_t(num_most_failed);
    }

    addThroughputMetrics(metrics, dynamic_branches, tp);
    result["metrics"] = std::move(metrics);
    result["predictor_statistics"] = predictor.execution_stats();
    if (args.collect_most_failed)
        result["most_failed"] = std::move(most_failed);
    return result;
}

/**
 * Assembles the compare()/simulateMany() document. @p rows is the flat
 * per-site stats array with stride 1 + n (occurrences, then one
 * misprediction counter per predictor), @p row_ips the matching site
 * addresses (any order; the ranking below is a total order). @p PPtr is
 * any pointer-like to a predictor shape (Predictor*, BlockKernel*).
 */
template <typename PPtr>
inline json_t
buildManyDoc(const char *kName, const std::vector<PPtr> &predictors,
             const SimArgs &args, std::uint64_t simulation_instr,
             bool exhausted, std::uint64_t static_branches,
             std::uint64_t dynamic_cond, std::uint64_t dynamic_branches,
             const std::vector<std::uint64_t> &mispredictions,
             const std::vector<std::uint64_t> &rows,
             const std::vector<std::uint64_t> &row_ips,
             const Throughput &tp)
{
    const std::size_t n = predictors.size();
    const std::size_t stride = 1 + n;

    // Rank by the spread in mispredictions (max − min across predictors):
    // the branches whose predictability changed the most between designs.
    // For two predictors this is exactly compare()'s absolute difference.
    auto spreadOf = [&](const std::uint64_t *row) {
        std::uint64_t lo = row[1], hi = row[1];
        for (std::size_t k = 1; k < n; ++k) {
            lo = std::min(lo, row[1 + k]);
            hi = std::max(hi, row[1 + k]);
        }
        return hi - lo;
    };

    json_t most_failed = json_t::array();
    if (args.collect_most_failed) {
        std::vector<std::uint32_t> ranked;
        ranked.reserve(row_ips.size());
        for (std::uint32_t r = 0; r < row_ips.size(); ++r) {
            if (spreadOf(rows.data() + std::size_t(r) * stride) > 0)
                ranked.push_back(r);
        }
        std::sort(ranked.begin(), ranked.end(),
                  [&](std::uint32_t x, std::uint32_t y) {
                      std::uint64_t dx =
                          spreadOf(rows.data() + std::size_t(x) * stride);
                      std::uint64_t dy =
                          spreadOf(rows.data() + std::size_t(y) * stride);
                      if (dx != dy)
                          return dx > dy;
                      return row_ips[x] < row_ips[y];
                  });
        for (std::size_t i = 0;
             i < std::min(ranked.size(), args.most_failed_cap); ++i) {
            const std::uint64_t *row =
                rows.data() + std::size_t(ranked[i]) * stride;
            json_t entry = json_t::object({
                {"ip", row_ips[ranked[i]]},
                {"occurrences", row[0]},
            });
            for (std::size_t k = 0; k < n; ++k)
                entry["mpki_" + std::to_string(k)] =
                    mpkiOf(row[1 + k], simulation_instr);
            if (n == 2) {
                entry["mpki_diff"] = mpkiOf(row[1], simulation_instr) -
                                     mpkiOf(row[2], simulation_instr);
            } else {
                entry["mpki_spread"] =
                    mpkiOf(spreadOf(row), simulation_instr);
            }
            most_failed.push_back(std::move(entry));
        }
    }

    json_t result = json_t::object();
    result["metadata"] = makeMetadata(kName, args, simulation_instr,
                                      exhausted, dynamic_cond,
                                      static_branches);
    for (std::size_t k = 0; k < n; ++k) {
        json_t md = predictors[k]->metadata_stats();
        // Same unreported-vs-zero-cost distinction as simulate().
        if (reportsStorageOf(*predictors[k]))
            md["storage_bits"] = predictors[k]->storageBits();
        else
            md["storage_bits"] = nullptr;
        result["metadata"]["predictor_" + std::to_string(k)] =
            std::move(md);
    }
    json_t metrics = json_t::object();
    for (std::size_t k = 0; k < n; ++k)
        metrics["mpki_" + std::to_string(k)] =
            mpkiOf(mispredictions[k], simulation_instr);
    for (std::size_t k = 0; k < n; ++k)
        metrics["mispredictions_" + std::to_string(k)] = mispredictions[k];
    for (std::size_t k = 0; k < n; ++k)
        metrics["accuracy_" + std::to_string(k)] =
            accuracyOf(mispredictions[k], dynamic_cond);
    addThroughputMetrics(metrics, dynamic_branches, tp);
    result["metrics"] = std::move(metrics);
    for (std::size_t k = 0; k < n; ++k)
        result["predictor_statistics_" + std::to_string(k)] =
            predictors[k]->execution_stats();
    if (args.collect_most_failed)
        result["most_failed"] = std::move(most_failed);
    return result;
}

/**
 * How a run obtains its branches: the streaming reader, or a decode-once
 * arena (requested via in_memory/preloaded, subject to mem_budget).
 */
inline bool
wantsArena(const SimArgs &args)
{
    if (args.preloaded != nullptr)
        return true;
    if (!args.in_memory)
        return false;
    if (args.mem_budget > 0 &&
        sbbt::MemTrace::estimateFileBytes(args.trace_path) >
            args.mem_budget)
        return false; // streaming fallback, never a failure
    return true;
}

/** A resolved arena: the trace, its decode cost, or the load error. */
struct ArenaHandle
{
    std::shared_ptr<const sbbt::MemTrace> trace;
    double load_seconds = 0.0;
    std::string error;
};

inline ArenaHandle
resolveArena(const SimArgs &args)
{
    ArenaHandle handle;
    if (args.preloaded != nullptr) {
        handle.trace = args.preloaded;
        return handle; // decode already paid for elsewhere
    }
    handle.trace = sbbt::MemTrace::load(args.trace_path,
                                        readerOptions(args), &handle.error);
    if (handle.trace != nullptr)
        handle.load_seconds = handle.trace->loadSeconds();
    return handle;
}

/**
 * Compile-time-bound predictor calls. The predictor interface methods
 * are virtual, so a plain `predictor.predict(ip)` through a `P &` still
 * dispatches through the vtable even when P is the concrete type — the
 * compiler cannot rule out a further-derived object behind the
 * reference. The qualified call `predictor.P::predict(ip)` binds at
 * compile time instead, which is what lets the inliner dissolve a cheap
 * predictor into the loop body. When P is abstract (mbp::Predictor,
 * mbp::BlockKernel) the qualified form would name a pure virtual, so
 * these helpers fall back to normal dispatch.
 *
 * Contract, inherited by every fused entry point: when P is concrete it
 * must be the *most-derived* type of the object, since overriders in a
 * further-derived class would be skipped.
 */
template <typename P>
inline bool
boundPredict(P &predictor, std::uint64_t ip)
{
    if constexpr (std::is_abstract_v<P>)
        return predictor.predict(ip);
    else
        return predictor.P::predict(ip);
}

template <typename P>
inline void
boundTrain(P &predictor, const Branch &branch)
{
    if constexpr (std::is_abstract_v<P>)
        predictor.train(branch);
    else
        predictor.P::train(branch);
}

template <typename P>
inline void
boundTrack(P &predictor, const Branch &branch)
{
    if constexpr (std::is_abstract_v<P>)
        predictor.track(branch);
    else
        predictor.P::track(branch);
}

/**
 * The simulate() hot loop over any trace source. kHook/kCollect select
 * the hook-invoking and per-branch-statistics code at compile time: the
 * default fast path (no hook, ranking on) contains no std::function call
 * and no dead branches.
 */
template <bool kHook, bool kCollect, typename P, TraceSource Source>
inline RunWindow
runSimulateLoop(P &predictor, const SimArgs &args, Source &reader,
                RunAccounting &acc)
{
    const std::uint64_t limit = instrLimit(args);
    RunWindow window;
    sbbt::PacketData packet;
    while (reader.next(packet)) {
        const Branch &b = packet.branch;
        window.last_instr = reader.instrNumber();
        if (window.last_instr > limit)
            break;
        const bool measured = window.last_instr > args.warmup_instr;
        acc.noteBranchSite(b.ip());
        ++acc.dynamic_branches;
        if (b.isConditional()) {
            const bool guess = boundPredict(predictor, b.ip());
            if constexpr (kHook)
                args.prediction_hook(b, guess, window.last_instr, measured,
                                     0);
            if (measured) {
                ++acc.dynamic_cond;
                if (guess != b.isTaken())
                    ++acc.mispredictions_a;
                if constexpr (kCollect) {
                    BranchStat &stat = acc.per_branch[b.ip()];
                    ++stat.occurrences;
                    if (guess != b.isTaken())
                        ++stat.mispredictions_a;
                }
            }
            boundTrain(predictor, b);
        }
        if (!args.track_only_conditional || b.isConditional())
            boundTrack(predictor, b);
    }
    return window;
}

/** The simulate() hot loop and report, over any trace source. */
template <typename P, TraceSource Source>
json_t
simulateCore(const char *kName, P &predictor, const SimArgs &args,
             Source &reader, double load_seconds)
{
    RunAccounting acc;
    const bool hook = static_cast<bool>(args.prediction_hook);

    auto start_time = std::chrono::steady_clock::now();
    RunWindow window =
        hook ? (args.collect_most_failed
                    ? runSimulateLoop<true, true>(predictor, args, reader,
                                                  acc)
                    : runSimulateLoop<true, false>(predictor, args, reader,
                                                   acc))
             : (args.collect_most_failed
                    ? runSimulateLoop<false, true>(predictor, args, reader,
                                                   acc)
                    : runSimulateLoop<false, false>(predictor, args,
                                                    reader, acc));
    auto end_time = std::chrono::steady_clock::now();
    double seconds =
        std::chrono::duration<double>(end_time - start_time).count();

    if (!reader.error().empty())
        return errorResult(kName, args, reader.error());

    const bool exhausted = reader.exhausted();
    std::uint64_t simulation_instr =
        measuredInstr(args, reader.header().instruction_count, exhausted,
                      window.last_instr, instrLimit(args));

    std::vector<std::pair<std::uint64_t, BranchStat>> rows;
    if (args.collect_most_failed) {
        rows.reserve(acc.per_branch.size());
        acc.per_branch.forEach(
            [&](std::uint64_t ip, const BranchStat &stat) {
                if (stat.mispredictions_a > 0)
                    rows.emplace_back(ip, stat);
            });
    }
    Throughput tp{seconds, reader.decompressedBytes(),
                  reader.prefetchStallSeconds(), load_seconds};
    return buildSimulateDoc(kName, predictor, args, simulation_instr,
                            exhausted, acc.static_branches,
                            acc.dynamic_cond, acc.dynamic_branches,
                            acc.mispredictions_a, std::move(rows), tp);
}

/**
 * The N-predictor hot loop over any trace source. Misprediction totals
 * are counted unconditionally; only the per-branch ranking rows are
 * gated on kCollect (SimArgs::collect_most_failed), and the hook fires
 * per predictor with its roster index when kHook. @p PPtr is any
 * pointer-like predictor shape (Predictor*, BlockKernel*).
 */
template <bool kHook, bool kCollect, typename PPtr, TraceSource Source>
inline RunWindow
runManyLoop(const std::vector<PPtr> &predictors, const SimArgs &args,
            Source &reader, SiteAccounting &acc,
            std::vector<std::uint64_t> &mispredictions,
            std::vector<std::uint64_t> &rows,
            std::vector<std::uint64_t> &row_ips)
{
    const std::size_t n = predictors.size();
    const std::size_t stride = 1 + n;
    const std::uint64_t limit = instrLimit(args);

    // Per-branch stats live in one flat array (stride = 1 + n:
    // occurrences then one misprediction counter per predictor) indexed
    // through an ip -> row map, so N predictors cost one hash lookup per
    // measured branch, same as compare() always did.
    util::FlatHashMap<std::uint32_t> row_of; // value = row index + 1
    std::vector<char> guesses(n, 0);

    RunWindow window;
    sbbt::PacketData packet;
    while (reader.next(packet)) {
        const Branch &branch = packet.branch;
        window.last_instr = reader.instrNumber();
        if (window.last_instr > limit)
            break;
        const bool measured = window.last_instr > args.warmup_instr;
        acc.noteBranchSite(branch.ip());
        ++acc.dynamic_branches;
        if (branch.isConditional()) {
            for (std::size_t k = 0; k < n; ++k)
                guesses[k] =
                    boundPredict(*predictors[k], branch.ip()) ? 1 : 0;
            if constexpr (kHook) {
                for (std::size_t k = 0; k < n; ++k)
                    args.prediction_hook(branch, guesses[k] != 0,
                                         window.last_instr, measured, k);
            }
            if (measured) {
                ++acc.dynamic_cond;
                const char taken = branch.isTaken() ? 1 : 0;
                if constexpr (kCollect) {
                    std::uint32_t &slot = row_of[branch.ip()];
                    if (slot == 0) {
                        if (rowIndexWouldOverflow(row_ips.size()) ||
                            rowAllocWouldOverflow(row_ips.size(),
                                                  stride)) {
                            window.error = kSiteOverflowError;
                            return window;
                        }
                        row_ips.push_back(branch.ip());
                        rows.resize(rows.size() + stride, 0);
                        slot = static_cast<std::uint32_t>(row_ips.size());
                    }
                    std::uint64_t *row =
                        rows.data() + std::size_t(slot - 1) * stride;
                    ++row[0];
                    for (std::size_t k = 0; k < n; ++k) {
                        if (guesses[k] != taken) {
                            ++row[1 + k];
                            ++mispredictions[k];
                        }
                    }
                } else {
                    for (std::size_t k = 0; k < n; ++k) {
                        if (guesses[k] != taken)
                            ++mispredictions[k];
                    }
                }
            }
            for (std::size_t k = 0; k < n; ++k)
                boundTrain(*predictors[k], branch);
        }
        if (!args.track_only_conditional || branch.isConditional()) {
            for (std::size_t k = 0; k < n; ++k)
                boundTrack(*predictors[k], branch);
        }
    }
    return window;
}

/**
 * The N-predictor hot loop and report, over any trace source. compare()
 * is this with N == 2 and its historical simulator name; the document
 * layout is compare()'s, generalized.
 */
template <typename PPtr, TraceSource Source>
json_t
simulateManyCore(const char *kName, const std::vector<PPtr> &predictors,
                 const SimArgs &args, Source &reader, double load_seconds)
{
    SiteAccounting acc;
    std::vector<std::uint64_t> mispredictions(predictors.size(), 0);
    std::vector<std::uint64_t> rows;
    std::vector<std::uint64_t> row_ips;
    const bool hook = static_cast<bool>(args.prediction_hook);

    auto start_time = std::chrono::steady_clock::now();
    RunWindow window =
        hook ? (args.collect_most_failed
                    ? runManyLoop<true, true>(predictors, args, reader,
                                              acc, mispredictions, rows,
                                              row_ips)
                    : runManyLoop<true, false>(predictors, args, reader,
                                               acc, mispredictions, rows,
                                               row_ips))
             : (args.collect_most_failed
                    ? runManyLoop<false, true>(predictors, args, reader,
                                               acc, mispredictions, rows,
                                               row_ips)
                    : runManyLoop<false, false>(predictors, args, reader,
                                                acc, mispredictions, rows,
                                                row_ips));
    auto end_time = std::chrono::steady_clock::now();
    double seconds =
        std::chrono::duration<double>(end_time - start_time).count();

    if (!window.error.empty())
        return errorResult(kName, args, window.error);
    if (!reader.error().empty())
        return errorResult(kName, args, reader.error());

    const bool exhausted = reader.exhausted();
    std::uint64_t simulation_instr =
        measuredInstr(args, reader.header().instruction_count, exhausted,
                      window.last_instr, instrLimit(args));

    Throughput tp{seconds, reader.decompressedBytes(),
                  reader.prefetchStallSeconds(), load_seconds};
    return buildManyDoc(kName, predictors, args, simulation_instr,
                        exhausted, acc.static_branches, acc.dynamic_cond,
                        acc.dynamic_branches, mispredictions, rows,
                        row_ips, tp);
}

} // namespace mbp::detail

#endif // MBP_SIM_DETAIL_SIM_CORE_HPP
