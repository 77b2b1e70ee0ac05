/**
 * @file
 * The simulation kernels: the only code that steps predictors.
 *
 * Two drivers cover every run. The single-predictor driver
 * (detail::runSingle, with fusedRange as its loop) serves
 * simulate() and simulateFused(); the N-predictor block driver
 * (BlockKernel::runBlock plus a shared accounting pass, kernels.cpp)
 * serves compare(), simulateMany() and their fused forms. Both read the
 * run as a sequence of sbbt::BranchColumns blocks from a
 * detail::BlockSource: slices of a decode-once arena, or one reused
 * window that streaming decode refills. The predictor type is a template
 * parameter: a concrete mbp::PredictorLike type inlines
 * predict/train/track into the loop, while the abstract mbp::Predictor
 * base — what the virtual entry points pass — keeps virtual dispatch.
 *
 * What the drivers do per branch is what a concrete type buys:
 *
 *  - the struct-of-arrays columns are bulk-read, block by block, instead
 *    of materializing per-branch packets;
 *  - predict/train/track are inlined into the loop body (template
 *    dispatch, zero virtual calls on the single-predictor path and one
 *    per block-x-predictor on the N-predictor path);
 *  - per-site accounting is array indexing through the dense site ids
 *    assigned at decode, never a hash probe;
 *  - predictors whose address hash factors into a pure per-site value
 *    (KernelSiteFold) get it memoized once per static site, so the
 *    single-predictor hot loop does no address hashing at all and never
 *    touches the 8-byte ip column;
 *  - warmup and instruction-limit checks leave the loop entirely: each
 *    block is split into [unmeasured) [measured) ranges by binary
 *    search, and each range runs a loop specialized on its measurement
 *    flag;
 *  - on the N-predictor block driver, predictors that can name the
 *    counter lines of a future lookup (`prefetchHints(ip, span)`,
 *    KernelMultiPrefetch) get them software-prefetched a fixed distance
 *    ahead, covering the re-warm misses caused by N predictors evicting
 *    each other between blocks — one hint for a one-table predictor, one
 *    per tagged bank for the TAGE family, at a per-predictor distance
 *    when they declare one (P::kPrefetchDistance). (The single-predictor
 *    loop deliberately does not prefetch: its counter lines stay resident
 *    on their own, and the extra hint computation measurably slows the
 *    loop.)
 *
 * Results are bit-identical across predictor types and sources — same
 * prediction stream, same output document modulo the timing fields; the
 * conformance suite pins this for the whole roster.
 *
 * @code
 *   Gshare<15, 17> predictor;
 *   mbp::SimArgs args;
 *   args.trace_path = "traces/SHORT_SERVER-1.sbbt.flz";
 *   args.in_memory = true;
 *   mbp::json_t result = mbp::simulateFused(predictor, args);
 * @endcode
 */
#ifndef MBP_SIM_KERNELS_HPP
#define MBP_SIM_KERNELS_HPP

#include <algorithm>
#include <chrono>
#include <concepts>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "mbp/json/json.hpp"
#include "mbp/sbbt/mem_trace.hpp"
#include "mbp/sim/concepts.hpp"
#include "mbp/sim/detail/sim_core.hpp"
#include "mbp/sim/simulator.hpp"

namespace mbp
{

/**
 * Branches of lookahead for the software counter-line prefetch. Far
 * enough ahead to cover a memory access at a few ns per branch of loop
 * work, near enough that the line is not evicted again before use.
 */
inline constexpr std::size_t kKernelPrefetchDistance = 16;

/**
 * Upper bound on the addresses one prefetchHints() call may produce.
 * Bounds the block driver's stack buffer; predictors with more banks
 * than this simply hint their first kKernelMaxPrefetchHints ones.
 */
inline constexpr std::size_t kKernelMaxPrefetchHints = 16;

/**
 * A predictor that can name the counter lines a future lookup will
 * touch, so the block driver can software-prefetch them ahead of the
 * loop: `prefetchHints(ip, out)` writes up to out.size() addresses for a
 * lookup of @p ip and returns how many it wrote — one for a one-table
 * predictor, one per tagged bank in the TAGE family. The addresses only
 * steer prefetches and may be approximate (e.g. Gshare hashes with the
 * *current* history, not the one at lookup time) — correctness never
 * depends on them.
 */
template <typename P>
concept KernelMultiPrefetch =
    requires(const P &predictor, std::uint64_t ip,
             std::span<const void *> out) {
        { predictor.prefetchHints(ip, out) }
            -> std::convertible_to<std::size_t>;
    };

/**
 * The prefetch lookahead the block driver uses for @p P: the predictor's
 * own `P::kPrefetchDistance` when it declares one (multi-bank predictors
 * issue many hints per step, so a shorter distance keeps them resident),
 * else the global kKernelPrefetchDistance.
 */
template <typename P>
consteval std::size_t
kernelPrefetchDistanceOf()
{
    if constexpr (requires {
                      { P::kPrefetchDistance } ->
                          std::convertible_to<std::size_t>;
                  })
        return P::kPrefetchDistance;
    else
        return kKernelPrefetchDistance;
}

/**
 * A predictor whose whole per-conditional-branch sequence can run as a
 * single step. `fusedStep(ip, taken)` must be *exactly* equivalent to
 * `predict(ip)`, then `train(b)`, then `track(b)` for a conditional
 * branch b at @p ip with outcome @p taken — so only predictors whose
 * train/track consult nothing but the address and the outcome may offer
 * it. For table predictors this halves the hot loop's hash and index
 * work (the counter slot is computed once) and skips materializing the
 * Branch packet entirely on the conditional path.
 *
 * The single-predictor kernel substitutes the fused step only when no
 * prediction hook is installed, because a hook is entitled to observe
 * the predictor between the calls; the N-predictor block driver always
 * may, since its hooks are replayed from recorded guesses after the
 * block runs.
 */
template <typename P>
concept KernelFusedStep = requires(P &p, std::uint64_t ip, bool taken) {
    { p.fusedStep(ip, taken) } -> std::convertible_to<bool>;
};

/**
 * A fused-step predictor whose address hash factors into a pure per-site
 * component: `siteFold(ip)` must depend on nothing but @p ip, and
 * `fusedStepFolded(siteFold(ip), taken)` must be *exactly*
 * `fusedStep(ip, taken)`. The single-predictor kernel then evaluates
 * `siteFold` once per static branch site (through the arena's dense site
 * ids) instead of once per dynamic branch — for table predictors this
 * removes the whole address hash from the hot loop, which stops reading
 * the 8-byte ip column entirely and indexes a tiny per-site fold table
 * instead.
 */
template <typename P>
concept KernelSiteFold =
    KernelFusedStep<P> &&
    requires(const P &cp, P &p, std::uint64_t ip, std::uint64_t folded,
             bool taken) {
        { cp.siteFold(ip) } -> std::convertible_to<std::uint64_t>;
        { p.fusedStepFolded(folded, taken) } -> std::convertible_to<bool>;
    };

namespace detail
{

/** Best-effort read prefetch of the cache line holding @p address. */
inline void
prefetchLine(const void *address)
{
#if defined(__GNUC__)
    __builtin_prefetch(address, 0, 3);
#else
    (void)address;
#endif
}

/** Accumulated state of a single-predictor run. */
struct FusedRunState
{
    std::uint64_t dynamic_cond = 0;
    std::uint64_t mispredictions = 0;
    // Per-site counters indexed directly by the dense site id. Only the
    // misprediction counts depend on the predictor; occurrences are
    // counted here only when the run does not cover the whole trace
    // (otherwise the decode-time totals serve).
    std::vector<std::uint64_t> site_mis;
    std::vector<std::uint64_t> site_occ;
    // Per-site address folds (KernelSiteFold), one per site seen so far.
    std::vector<std::uint64_t> fold;
};

/**
 * The single-predictor loop over rows [begin, end) of @p block, all
 * sharing one measurement flag. kHook/kCollect/kMeasured specialize the
 * body at compile time: the default fast configuration is pure
 * predict/train/track plus two counter increments per branch.
 *
 * Deliberately no software prefetch here: a single predictor's counter
 * lines stay cache-resident between touches of the same site, so an
 * extra per-branch hint computation only slows the loop down (measured
 * ~+1 ns/branch); the N-predictor block driver, where predictors evict
 * each other between blocks, is where prefetch pays (FusedKernel).
 */
template <typename P, bool kHook, bool kCollect, bool kMeasured>
inline void
fusedRange(P &predictor, const SimArgs &args,
           const sbbt::BranchColumns &block, std::size_t begin,
           std::size_t end, FusedRunState &state)
{
    const std::uint64_t *ips = block.ip;
    const std::uint64_t *targets = block.target;
    const std::uint64_t *instr = block.instr;
    const std::uint8_t *meta = block.meta;
    const std::uint32_t *sites = block.site;
    // A hook may observe the predictor between predict and train, so the
    // fused substitutions only apply on hook-free runs.
    constexpr bool kFusedStep = KernelFusedStep<P> && !kHook;
    constexpr bool kSiteFold = KernelSiteFold<P> && !kHook;
    const std::uint64_t *site_fold = state.fold.data();
    // Locals, not state members: the counter stores below would
    // otherwise force the compiler to reload them every iteration.
    std::uint64_t dynamic_cond = 0;
    std::uint64_t total_miss = 0;
    std::uint64_t *site_mis = state.site_mis.data();
    const bool track_all = !args.track_only_conditional;
    for (std::size_t i = begin; i < end; ++i) {
        const std::uint8_t m = meta[i];
        if ((m & 0x01) != 0) { // conditional
            const bool taken = (m & 0x10) != 0;
            bool guess;
            if constexpr (kSiteFold)
                guess = predictor.fusedStepFolded(site_fold[sites[i]],
                                                  taken);
            else if constexpr (kFusedStep)
                guess = predictor.fusedStep(ips[i], taken);
            else
                guess = detail::boundPredict(predictor, ips[i]);
            if constexpr (kHook) {
                const Branch b{ips[i], targets[i], OpCode(m & 0x0f),
                               taken};
                args.prediction_hook(b, guess, instr[i], kMeasured, 0);
            }
            if constexpr (kMeasured) {
                ++dynamic_cond;
                const bool miss = guess != taken;
                total_miss += miss ? 1 : 0;
                if constexpr (kCollect)
                    site_mis[sites[i]] += miss ? 1 : 0;
            }
            if constexpr (!kFusedStep) {
                const Branch b{ips[i], targets[i], OpCode(m & 0x0f),
                               taken};
                detail::boundTrain(predictor, b);
                detail::boundTrack(predictor, b); // conditionals: always
            }
        } else if (track_all) {
            const Branch b{ips[i], targets[i], OpCode(m & 0x0f),
                           (m & 0x10) != 0};
            detail::boundTrack(predictor, b);
        }
    }
    state.dynamic_cond += dynamic_cond;
    state.mispredictions += total_miss;
}

/**
 * Steps @p predictor through every block of @p source up to the
 * instruction limit. @p count_occ: count per-site occurrences of the
 * measured window here, because the run does not cover the whole trace.
 */
template <typename P, bool kHook, bool kCollect>
inline void
fusedRun(P &predictor, const SimArgs &args, BlockSource &source,
         RunTotals &run, FusedRunState &state, bool count_occ)
{
    sbbt::BranchColumns block;
    while (!run.stopped &&
           source.next(block, std::numeric_limits<std::size_t>::max())) {
        const auto [mid, stop] = run.split(block);
        const std::size_t num_sites = source.numSites();
        if constexpr (kCollect) {
            state.site_mis.resize(num_sites);
            if (count_occ)
                state.site_occ.resize(num_sites);
        }
        // Per-site address folds, evaluated once per static site instead
        // of once per dynamic branch (KernelSiteFold): a few hundred
        // hashes up front buy a hot loop with no address hashing at all.
        if constexpr (KernelSiteFold<P> && !kHook) {
            const std::uint64_t *site_ips = source.siteIpData();
            for (std::size_t s = state.fold.size(); s < num_sites; ++s)
                state.fold.push_back(predictor.siteFold(site_ips[s]));
        }
        fusedRange<P, kHook, kCollect, false>(predictor, args, block, 0,
                                              mid, state);
        fusedRange<P, kHook, kCollect, true>(predictor, args, block, mid,
                                             stop, state);
        if (kCollect && count_occ) {
            for (std::size_t i = mid; i < stop; ++i)
                state.site_occ[block.site[i]] += block.meta[i] & 0x01;
        }
    }
}

/**
 * The single-predictor simulate(): resolves the source, runs the loop,
 * builds the report. P is a concrete PredictorLike type (fused) or the
 * abstract mbp::Predictor (virtual dispatch).
 */
template <typename P>
json_t
runSingle(const char *kName, P &predictor, const SimArgs &args)
{
    BlockSource source;
    std::string error;
    if (!source.open(args, error))
        return errorResult(kName, args, error);

    // A run that steps every branch of the trace, all measured, reads
    // the decode-time per-site occurrence totals; any other counts its
    // measured window as it goes.
    const bool count_occ =
        args.collect_most_failed &&
        (args.warmup_instr != 0 ||
         instrLimit(args) != std::numeric_limits<std::uint64_t>::max());
    RunTotals run(args);
    FusedRunState state;
    const bool hook = static_cast<bool>(args.prediction_hook);

    auto start_time = std::chrono::steady_clock::now();
    if (hook) {
        if (args.collect_most_failed)
            fusedRun<P, true, true>(predictor, args, source, run, state,
                                    count_occ);
        else
            fusedRun<P, true, false>(predictor, args, source, run, state,
                                     count_occ);
    } else {
        if (args.collect_most_failed)
            fusedRun<P, false, true>(predictor, args, source, run, state,
                                     count_occ);
        else
            fusedRun<P, false, false>(predictor, args, source, run, state,
                                      count_occ);
    }
    auto end_time = std::chrono::steady_clock::now();
    double seconds =
        std::chrono::duration<double>(end_time - start_time).count();

    if (!source.error().empty())
        return errorResult(kName, args, source.error());

    std::vector<std::pair<std::uint64_t, BranchStat>> rows;
    if (args.collect_most_failed) {
        const std::uint64_t *site_ips = source.siteIpData();
        const std::uint64_t *site_occ = count_occ
                                            ? state.site_occ.data()
                                            : source.siteCondOccData();
        for (std::size_t s = 0; s < state.site_mis.size(); ++s) {
            if (state.site_mis[s] > 0)
                rows.emplace_back(site_ips[s],
                                  BranchStat{site_occ[s], state.site_mis[s],
                                             0});
        }
    }
    return buildSimulateDoc(kName, predictor, args,
                            run.simulationInstr(args, source.header()),
                            run.exhausted(), run.static_branches,
                            state.dynamic_cond, run.dynamic_branches,
                            state.mispredictions, std::move(rows),
                            source.throughput(seconds));
}

} // namespace detail

/**
 * Fused drop-in for simulate(): same SimArgs contract, same output
 * document (modulo timing fields), but with @p predictor's concrete type
 * known at compile time so the hot loop carries no virtual dispatch.
 * P must be the most-derived type of @p predictor: the loop binds
 * predict/train/track at compile time (detail::boundPredict), which
 * would skip overriders in a class further derived from P.
 */
template <PredictorLike P>
json_t
simulateFused(P &predictor, const SimArgs &args)
{
    return detail::runSingle(detail::kStdSimulatorName, predictor, args);
}

/**
 * Type-erased handle to a predictor for the N-predictor block driver:
 * one virtual call per block — runBlock(), which runs a whole block
 * (up to kKernelBlockBranches branches) through the predictor's
 * predict/train/track and records the prediction bits for the shared
 * accounting pass. The other virtuals let the report builder query
 * metadata; deliberately *not* a mbp::Predictor (no
 * storage_components), so the fused and virtual entry points can never
 * be confused by overload resolution.
 */
class BlockKernel
{
  public:
    BlockKernel() = default;
    BlockKernel(const BlockKernel &) = delete;
    BlockKernel &operator=(const BlockKernel &) = delete;
    virtual ~BlockKernel() = default;

    virtual json_t metadata_stats() const = 0;
    virtual json_t execution_stats() const = 0;
    virtual std::uint64_t storageBits() const = 0;
    virtual bool reportsStorage() const = 0;

    /**
     * Runs every row of @p block through the predictor — predict + train
     * on conditionals, track per @p track_all — and writes each branch's
     * prediction (0/1; 0 for unconditionals) to @p guesses[i].
     * @p guesses must hold block.size bytes.
     */
    virtual void runBlock(const sbbt::BranchColumns &block, bool track_all,
                          std::uint8_t *guesses) = 0;
};

/**
 * The one BlockKernel implementation. P is a concrete PredictorLike type
 * (inlined calls) or the abstract mbp::Predictor (virtual calls, how
 * compare() and simulateMany() run).
 */
template <PredictorLike P>
class FusedKernel final : public BlockKernel
{
  public:
    /** Wraps a caller-owned predictor (must outlive the kernel). */
    explicit FusedKernel(P &predictor) : predictor_(&predictor) {}

    /** Wraps and owns a predictor. */
    explicit FusedKernel(std::unique_ptr<P> predictor)
        : owned_(std::move(predictor)), predictor_(owned_.get())
    {
    }

    json_t metadata_stats() const override
    {
        return predictor_->metadata_stats();
    }
    json_t execution_stats() const override
    {
        return predictor_->execution_stats();
    }
    std::uint64_t storageBits() const override
    {
        return predictor_->storageBits();
    }
    bool reportsStorage() const override
    {
        return detail::reportsStorageOf(*predictor_);
    }

    void
    runBlock(const sbbt::BranchColumns &block, bool track_all,
             std::uint8_t *guesses) override
    {
        P &p = *predictor_;
        const std::uint64_t *ips = block.ip;
        const std::uint64_t *targets = block.target;
        const std::uint8_t *meta = block.meta;
        const std::size_t end = block.size;
        for (std::size_t i = 0; i < end; ++i) {
            if constexpr (KernelMultiPrefetch<P>) {
                const std::size_t ahead = i + kernelPrefetchDistanceOf<P>();
                if (ahead < end) {
                    const void *hints[kKernelMaxPrefetchHints];
                    const std::size_t n = p.prefetchHints(
                        ips[ahead], std::span<const void *>(hints));
                    for (std::size_t h = 0; h < n; ++h)
                        detail::prefetchLine(hints[h]);
                }
            }
            const std::uint8_t m = meta[i];
            if ((m & 0x01) != 0) {
                const bool taken = (m & 0x10) != 0;
                bool guess;
                if constexpr (KernelFusedStep<P>) {
                    guess = p.fusedStep(ips[i], taken);
                } else {
                    guess = detail::boundPredict(p, ips[i]);
                    const Branch b{ips[i], targets[i], OpCode(m & 0x0f),
                                   taken};
                    detail::boundTrain(p, b);
                    detail::boundTrack(p, b);
                }
                guesses[i] = guess ? 1 : 0;
            } else {
                guesses[i] = 0;
                if (track_all) {
                    const Branch b{ips[i], targets[i], OpCode(m & 0x0f),
                                   (m & 0x10) != 0};
                    detail::boundTrack(p, b);
                }
            }
        }
    }

  private:
    std::unique_ptr<P> owned_; // empty in the borrowing mode
    P *predictor_;
};

/** Heap-builds a fused kernel owning a fresh @p P (factory helper). */
template <PredictorLike P, typename... Args>
std::unique_ptr<BlockKernel>
makeFusedKernel(Args &&...args)
{
    return std::make_unique<FusedKernel<P>>(
        std::make_unique<P>(std::forward<Args>(args)...));
}

/**
 * Fused drop-in for simulateMany() over pre-built kernels: one pass over
 * the trace feeds all predictors block by block, interleaved so each
 * block's columns are read once while hot. Same output document as
 * simulateMany() (modulo timing fields), over an arena or streaming.
 */
json_t simulateManyFused(const std::vector<BlockKernel *> &kernels,
                         const SimArgs &args);

/** Fused drop-in for compare() over pre-built kernels. */
json_t compareFused(BlockKernel &a, BlockKernel &b, const SimArgs &args);

/**
 * Fused simulateMany() over concrete predictors: wraps each in a
 * FusedKernel on the stack and runs the block driver.
 */
template <PredictorLike... Ps>
json_t
simulateManyFused(const SimArgs &args, Ps &...predictors)
{
    // Direct-initialization through the tuple's converting constructor:
    // kernels are neither copyable nor movable, so each element must be
    // built in place from its predictor reference.
    std::tuple<FusedKernel<Ps>...> kernels(predictors...);
    std::vector<BlockKernel *> pointers;
    pointers.reserve(sizeof...(Ps));
    std::apply([&](auto &...kernel) { (pointers.push_back(&kernel), ...); },
               kernels);
    return simulateManyFused(pointers, args);
}

/** Fused compare() over two concrete predictors. */
template <PredictorLike A, PredictorLike B>
json_t
compareFused(A &a, B &b, const SimArgs &args)
{
    FusedKernel<A> kernel_a(a);
    FusedKernel<B> kernel_b(b);
    return compareFused(kernel_a, kernel_b, args);
}

} // namespace mbp

#endif // MBP_SIM_KERNELS_HPP
