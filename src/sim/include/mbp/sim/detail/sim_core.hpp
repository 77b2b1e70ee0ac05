/**
 * @file
 * Shared internals of the simulator family: where a run's branches come
 * from (BlockSource), the run-level warmup/limit bookkeeping
 * (RunTotals), and the report builders.
 *
 * Every simulator flavor — simulate()/compare()/simulateMany(), their
 * fused counterparts in mbp/sim/kernels.hpp, and frontend::simulate() —
 * reads its trace as a sequence of sbbt::BranchColumns blocks from one
 * BlockSource and builds its document with the helpers here, so the
 * output documents and the warmup/limit accounting cannot drift apart
 * between paths. The loops that step predictors live in kernels.hpp and
 * kernels.cpp only.
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

namespace mbp
{

/**
 * Branches per kernel block, and the size of the window a streaming run
 * decodes into. Large enough to amortize the one virtual runBlock() call
 * per (block x predictor) on the N-predictor path into noise, small
 * enough that a block's three hot columns (ip + meta + guesses,
 * 10 B/branch) stay resident in L1d between the predict pass and the
 * accounting pass.
 */
inline constexpr std::size_t kKernelBlockBranches = 4096;

} // namespace mbp

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

/** Timing/throughput observability fields of a finished run. */
struct Throughput
{
    double seconds = 0.0;
    std::uint64_t decompressed_bytes = 0;
    double prefetch_stall_seconds = 0.0;
    double load_seconds = 0.0;
};

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
 * with at least one misprediction (any order; ranked here).
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
 * a pointer to a predictor shape (BlockKernel*).
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
 * Run-level bookkeeping shared by every driver: splits each block at the
 * warmup and instruction-limit boundaries, and accumulates the
 * predictor-independent totals of the document.
 */
struct RunTotals
{
    explicit RunTotals(const SimArgs &args)
        : limit(instrLimit(args)), warmup(args.warmup_instr)
    {
    }

    /** Rows [0, mid) of a block are warm-up, [mid, stop) measured. */
    struct Split
    {
        std::size_t mid;
        std::size_t stop;
    };

    /**
     * Splits @p block and books its rows inside the limit. A branch past
     * the limit stops the run; it is still the run's "last seen" branch,
     * as in a loop that reads it before breaking.
     */
    Split
    split(const sbbt::BranchColumns &block)
    {
        const std::uint64_t *instr = block.instr;
        const std::size_t stop = static_cast<std::size_t>(
            std::upper_bound(instr, instr + block.size, limit) - instr);
        const std::size_t mid = static_cast<std::size_t>(
            std::upper_bound(instr, instr + stop, warmup) - instr);
        dynamic_branches += stop;
        static_branches += sbbt::countFirstSeen(block.first_seen, stop);
        if (stop < block.size) {
            stopped = true;
            last_instr = instr[stop];
        } else if (block.size > 0) {
            last_instr = instr[block.size - 1];
        }
        return {mid, stop};
    }

    /** @return Whether the run consumed the whole trace. */
    bool exhausted() const { return !stopped; }

    /** @return The measured instruction count of the finished run. */
    std::uint64_t
    simulationInstr(const SimArgs &args, const sbbt::Header &header) const
    {
        return measuredInstr(args, header.instruction_count, !stopped,
                             last_instr, limit);
    }

    std::uint64_t limit;
    std::uint64_t warmup;
    std::uint64_t dynamic_branches = 0; // stepped, warm-up included
    std::uint64_t static_branches = 0;  // distinct sites stepped
    std::uint64_t last_instr = 0;
    bool stopped = false; // a branch past the limit ended the run
};

/**
 * Where a run's branches come from. A decode-once arena (SimArgs::
 * in_memory or preloaded, within mem_budget) yields slices of itself; any
 * other run streams the trace through one reused sbbt::TraceWindow of
 * kKernelBlockBranches branches. Either way the drivers see the same
 * column blocks, dense site ids and per-site tables.
 */
class BlockSource
{
  public:
    /**
     * Resolves the source of @p args: the arena (decoding it unless
     * preloaded) or the streaming window.
     *
     * @return False, with @p error set, when the trace cannot be opened.
     */
    bool
    open(const SimArgs &args, std::string &error)
    {
        limit_ = instrLimit(args);
        sbbt::ReaderOptions options;
        options.block_packets = args.reader_block_packets;
        options.prefetch = args.prefetch;
        if (args.preloaded != nullptr) {
            arena_ = args.preloaded; // decode already paid for elsewhere
            return true;
        }
        if (args.in_memory &&
            (args.mem_budget == 0 ||
             sbbt::MemTrace::estimateFileBytes(args.trace_path) <=
                 args.mem_budget)) {
            arena_ = sbbt::MemTrace::load(args.trace_path, options, &error);
            if (arena_ == nullptr)
                return false;
            load_seconds_ = arena_->loadSeconds();
            return true;
        }
        // Streaming: not asked for an arena, or over budget (a fallback,
        // never a failure).
        window_ = std::make_unique<sbbt::TraceWindow>(
            args.trace_path, options, kKernelBlockBranches);
        if (!window_->reader().ok()) {
            error = window_->reader().error();
            return false;
        }
        return true;
    }

    /**
     * Hands out the next block of at most @p max branches; false at end
     * of trace or on error. Arena slices start where the previous one
     * ended, so @p max must be a multiple of 64 (the first-seen bitmap is
     * sliced by words). A streaming block stops early after the first
     * branch past the run's instruction limit.
     */
    bool
    next(sbbt::BranchColumns &block, std::size_t max)
    {
        if (arena_ != nullptr) {
            block = arena_->columns(pos_, max);
            pos_ += block.size;
        } else {
            block = window_->next(limit_);
        }
        return block.size > 0;
    }

    /** @return Sites seen so far (the whole trace's, for an arena). */
    std::uint32_t
    numSites() const
    {
        return arena_ ? arena_->numSites() : window_->sites().numSites();
    }

    /** Site id -> address. */
    const std::uint64_t *
    siteIpData() const
    {
        return arena_ ? arena_->siteIpData()
                      : window_->sites().siteIps().data();
    }

    /** Site id -> conditional executions of every branch handed out so
     *  far: the whole-trace totals once a run has drained the trace. */
    const std::uint64_t *
    siteCondOccData() const
    {
        return arena_ ? arena_->siteCondOccData()
                      : window_->sites().siteCondOccurrences().data();
    }

    const sbbt::Header &
    header() const
    {
        return arena_ ? arena_->header() : window_->reader().header();
    }

    /** @return The deferred streaming error ("" for an arena). */
    const std::string &
    error() const
    {
        static const std::string kNone;
        return arena_ ? kNone : window_->error();
    }

    /** Observability fields of a run that took @p seconds. */
    Throughput
    throughput(double seconds) const
    {
        if (arena_ != nullptr)
            return {seconds, arena_->decompressedBytes(), 0.0,
                    load_seconds_};
        return {seconds, window_->reader().decompressedBytes(),
                window_->reader().prefetchStallSeconds(), 0.0};
    }

  private:
    std::shared_ptr<const sbbt::MemTrace> arena_;
    std::size_t pos_ = 0;
    double load_seconds_ = 0.0;
    std::unique_ptr<sbbt::TraceWindow> window_;
    std::uint64_t limit_ = 0;
};

/**
 * Compile-time-bound predictor calls. The predictor interface methods
 * are virtual, so a plain `predictor.predict(ip)` through a `P &` still
 * dispatches through the vtable even when P is the concrete type — the
 * compiler cannot rule out a further-derived object behind the
 * reference. The qualified call `predictor.P::predict(ip)` binds at
 * compile time instead, which is what lets the inliner dissolve a cheap
 * predictor into the loop body. When P is abstract (mbp::Predictor, as
 * simulate() and the virtual compare() drive it) the qualified form
 * would name a pure virtual, so these helpers fall back to normal
 * dispatch.
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

} // namespace mbp::detail

#endif // MBP_SIM_DETAIL_SIM_CORE_HPP
