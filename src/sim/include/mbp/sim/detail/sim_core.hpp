/**
 * @file
 * Shared internals of the simulator family: where a run's branches come
 * from (BlockSource), the run-level warmup/limit bookkeeping
 * (RunTotals) and the document helpers.
 *
 * Every simulator — simulate()/compare()/simulateMany(), their fused
 * counterparts in mbp/sim/kernels.hpp, and frontend::simulate() — reads
 * its trace as a sequence of sbbt::BranchColumns blocks from one
 * BlockSource and books it through RunTotals, so the warmup/limit
 * accounting and the document layout cannot drift apart between paths.
 * One driver (runBlocks in kernels.cpp) hands the blocks to every
 * kernel, and a frontend::FrontEnd is one.
 *
 * This is an internal header: everything in mbp::detail may change
 * between versions. User code should stick to mbp/sim/simulator.hpp and
 * mbp/sim/kernels.hpp.
 */
#ifndef MBP_SIM_DETAIL_SIM_CORE_HPP
#define MBP_SIM_DETAIL_SIM_CORE_HPP

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>

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
 * per (block x kernel) into noise, small enough that N kernels sharing a
 * block read its columns while they are still in cache.
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
 * The `metadata.predictor` object of every document: @p predictor's
 * metadata_stats() plus `storage_bits`, the total of its declared
 * component tree — a true 0 for a storage-free design — or null when it
 * declares none, so "unreported" is never mistaken for "zero-cost".
 * Works for any shape with those two members: a PredictorLike or a
 * BlockKernel, a FrontEnd included.
 */
template <typename P>
json_t
predictorMetadata(const P &predictor)
{
    json_t md = predictor.metadata_stats();
    if (const std::optional<ComponentInfo> storage =
            predictor.storage_components())
        md["storage_bits"] = storage->totalBits();
    else
        md["storage_bits"] = nullptr;
    return md;
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
        // Rows [0, n) up to @p bound. The ends are checked first: most
        // blocks lie wholly on one side, and a binary search is a chain
        // of dependent loads into a column the kernels never read (it
        // cost a bimodal run ~5% in cache misses at 4096-row blocks).
        const auto upTo = [instr](std::size_t n, std::uint64_t bound) {
            if (n == 0 || instr[0] > bound)
                return std::size_t{0};
            if (instr[n - 1] <= bound)
                return n;
            return static_cast<std::size_t>(
                std::upper_bound(instr, instr + n, bound) - instr);
        };
        const std::size_t stop = upTo(block.size, limit);
        const std::size_t mid = upTo(stop, warmup);
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
     * Hands out the next block of at most kKernelBlockBranches branches
     * (a multiple of 64, as arena slices need: the first-seen bitmap is
     * sliced by words); false at end of trace or on error. A streaming
     * block stops early after the first branch past the run's
     * instruction limit.
     */
    bool
    next(sbbt::BranchColumns &block)
    {
        if (arena_ != nullptr) {
            block = arena_->columns(pos_, kKernelBlockBranches);
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
