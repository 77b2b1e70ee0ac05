/**
 * @file
 * The simulation kernels and the one driver that steps them.
 *
 * One driver (src/sim/kernels.cpp) serves every run: simulate() and
 * simulateFused() are its one-kernel case, compare(), simulateMany(),
 * their fused forms and detail::simulateEach its N-kernel case, and the
 * front end's simulators run through it too, each FrontEnd wrapped in a
 * BlockKernel of the front end's own (detail::runJoined/runEach).
 * It reads the run as a sequence of sbbt::BranchColumns blocks from a
 * detail::BlockSource (slices of a decode-once arena, or one reused
 * window that streaming decode refills) and hands each block to every
 * kernel's BlockKernel::runBlock. FusedKernel::runBlock is the one loop
 * that steps a roster predictor (the front end's kernel runs its
 * direction predictor's kernel over the block, then its own pass over
 * the targets). The predictor type is a template
 * parameter of FusedKernel: a concrete mbp::PredictorLike type inlines
 * predict/train/track into the loop, while the abstract mbp::Predictor
 * base — what the virtual entry points pass — keeps virtual dispatch.
 *
 * What the loop does per branch is what a concrete type buys:
 *
 *  - the struct-of-arrays columns are bulk-read, block by block, instead
 *    of materializing per-branch packets;
 *  - predict/train/track are inlined into the loop body, with one
 *    virtual runBlock() call per block x kernel;
 *  - the counts are taken inside the loop, into the kernel's
 *    KernelTally: per-site mispredictions are array indexing through the
 *    dense site ids assigned at decode, never a hash probe;
 *  - predictors whose address hash factors into a pure per-site value
 *    (KernelSiteFold) get it memoized once per static site, so the loop
 *    does no address hashing at all;
 *  - predictors whose history depends on the trace alone
 *    (KernelTwoPhase: the TAGE family) do that history work for a chunk
 *    of rows at a time, vectorized across their banks, before the loop
 *    steps their tables row by row;
 *  - warmup checks leave the loop entirely: the driver splits each block
 *    into [unmeasured) [measured) ranges by binary search, and each
 *    range runs a loop specialized on its measurement flag.
 *
 * The loop issues no software prefetch. The TAGE family's default
 * tagged tables are 32 KiB, and counter-line hints computed a fixed
 * distance ahead slowed the multi-kernel runs they were measured on
 * (EXPERIMENTS.md, "One driver, no counter-line hints"). What its steps
 * were bound by was the history work: about two thirds of a per-branch
 * step folded the global and path histories and computed the banks'
 * indexes and tags, all of it determined by the trace, which is why the
 * family steps in two phases (EXPERIMENTS.md, "Two-phase TAGE-family
 * kernels").
 *
 * The prediction hook never runs inside the loop: a hooked run has each
 * kernel write its guesses, and the driver replays the hook after the
 * block's train/track, branch-major with the predictor index ascending.
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
#include <concepts>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "mbp/json/json.hpp"
#include "mbp/sim/concepts.hpp"
#include "mbp/sim/detail/sim_core.hpp"
#include "mbp/sim/simulator.hpp"

namespace mbp
{

/**
 * A predictor whose whole per-conditional-branch sequence runs as one
 * step on a pure per-site fold of the address. `siteFold(ip)` must
 * depend on nothing but @p ip, and `fusedStepFolded(siteFold(ip), taken)`
 * must be *exactly* `predict(ip)`, then `train(b)`, then `track(b)` for a
 * conditional branch b at @p ip with outcome @p taken — so only
 * predictors whose train/track consult nothing but the address, the
 * outcome and their own state may offer it. The loop evaluates
 * `siteFold` once per static branch site (through the dense site ids)
 * instead of once per dynamic branch: for table predictors this removes
 * the whole address hash from the hot loop, computes the counter slot
 * once instead of twice, and skips materializing the Branch packet on
 * the conditional path.
 *
 * The loop substitutes it on every run, hooked or not: the prediction
 * hook fires only after the whole block's train/track, so nothing can
 * observe the predictor between the three calls.
 */
template <typename P>
concept KernelSiteFold = requires(const P &cp, P &p, std::uint64_t ip,
                                  std::uint64_t folded, bool taken) {
    { cp.siteFold(ip) } -> std::convertible_to<std::uint64_t>;
    { p.fusedStepFolded(folded, taken) } -> std::convertible_to<bool>;
};

/**
 * A predictor whose step splits into a history phase that the trace alone
 * determines and a table phase — the TAGE family, whose every bank index
 * and tag depends only on outcomes and addresses already in the trace.
 * The loop hands it a block in chunks of at most `P::kIndexRows` rows:
 *
 *  - `indexRows(columns, begin, end, track_all)` (phase 1) does the
 *    history work of rows [begin, end): it computes each conditional
 *    row's lookup into the predictor's scratch, and advances the
 *    history over every conditional row, and over the others when
 *    track_all — what track() would see;
 *  - `stepIndexed(j, ip, taken)` (phase 2) must then be *exactly*
 *    predict(ip), train(b), track(b) for the chunk's j-th conditional
 *    row b, minus the history work phase 1 did;
 *  - `trackIndexed(b)` must be exactly track(b), minus that work, for a
 *    row that is not conditional (called only when track_all).
 *
 * The loop substitutes it on every run, hooked or not, for the same
 * reason as KernelSiteFold: nothing observes the predictor inside a
 * block.
 */
template <typename P>
concept KernelTwoPhase =
    requires(P &p, const sbbt::BranchColumns &columns, std::size_t row,
             std::uint64_t ip, bool flag, const Branch &b) {
        { P::kIndexRows } -> std::convertible_to<std::size_t>;
        p.indexRows(columns, row, row, flag);
        { p.stepIndexed(row, ip, flag) } -> std::convertible_to<bool>;
        p.trackIndexed(b);
    };

/**
 * One block as the driver hands it to every kernel of a run: rows
 * [0, columns.size) lie inside the instruction limit, rows [0, mid) are
 * warm-up.
 */
struct KernelBlock
{
    sbbt::BranchColumns columns;
    std::size_t mid = 0;
    const std::uint64_t *site_ips = nullptr; // site id -> address
    std::size_t num_sites = 0;               // sites seen so far
    bool track_all = true; // track unconditionals (!track_only_conditional)
    bool collect = false;  // count mispredictions per site
    // Hooked runs only: where the kernel writes each conditional row's
    // prediction (0/1) for the driver's hook replay.
    std::uint8_t *guesses = nullptr;
};

/** One kernel's counts over the measured conditionals of a run. */
struct KernelTally
{
    std::uint64_t dynamic_cond = 0;
    std::uint64_t mispredictions = 0;
    std::vector<std::uint64_t> site_mis; // by dense site id (collect)
    // Per-site memo by site id: a KernelSiteFold predictor's folds, or
    // a front end's target keys.
    std::vector<std::uint64_t> fold;
};

/**
 * Type-erased handle to a predictor for the driver: one virtual call per
 * block — runBlock(), which steps the predictor through the block and
 * counts its measured conditionals. The other virtuals let the report
 * builder query metadata and the declared storage; deliberately *not* a
 * mbp::Predictor (no predict/train/track), so the fused and virtual
 * entry points can never be confused by overload resolution.
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
    virtual std::optional<ComponentInfo> storage_components() const = 0;

    /**
     * Runs every row of @p block through the predictor — predict + train
     * + track on conditionals, track on the rest per block.track_all —
     * and adds the measured rows to @p tally (a fresh one per run).
     */
    virtual void runBlock(const KernelBlock &block, KernelTally &tally) = 0;
};

/**
 * The one BlockKernel implementation. P is a concrete PredictorLike type
 * (inlined calls) or the abstract mbp::Predictor (virtual calls, how the
 * virtual entry points run).
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
    std::optional<ComponentInfo> storage_components() const override
    {
        return predictor_->storage_components();
    }

    void
    runBlock(const KernelBlock &block, KernelTally &tally) override
    {
        // Per-site address folds, evaluated once per static site instead
        // of once per dynamic branch: a few hundred hashes up front buy a
        // hot loop with no address hashing at all.
        if constexpr (KernelSiteFold<P>) {
            for (std::size_t s = tally.fold.size(); s < block.num_sites; ++s)
                tally.fold.push_back(predictor_->siteFold(block.site_ips[s]));
        }
        if (block.collect)
            tally.site_mis.resize(block.num_sites);
        // Runtime flags -> compile-time loop variants.
        const auto with = [](bool flag, auto next) {
            flag ? next(std::true_type{}) : next(std::false_type{});
        };
        with(block.collect, [&](auto collect) {
            with(block.guesses != nullptr, [&](auto hook) {
                constexpr bool kC = decltype(collect)::value;
                constexpr bool kH = decltype(hook)::value;
                steps<false, kC, kH>(block, 0, block.mid, tally);
                steps<true, kC, kH>(block, block.mid, block.columns.size,
                                    tally);
            });
        });
    }

  private:
    /**
     * The loop over rows [begin, end), all sharing one measured flag.
     * Each variant is its own function with every call it can see
     * inlined: left to the inliner's budget, runBlock's variants stopped
     * inlining the predictor's step into some of them (fused GShare ran
     * at 0.6x).
     */
    template <bool kMeasured, bool kCollect, bool kHook>
    [[gnu::noinline, gnu::flatten]] void
    steps(const KernelBlock &block, std::size_t begin, std::size_t end,
          KernelTally &tally)
    {
        P &p = *predictor_;
        const sbbt::BranchColumns &c = block.columns;
        const std::uint64_t *ips = c.ip;
        const std::uint64_t *targets = c.target;
        const std::uint8_t *meta = c.meta;
        const std::uint32_t *sites = c.site;
        const std::uint64_t *site_fold = tally.fold.data();
        std::uint64_t *site_mis = tally.site_mis.data();
        std::uint8_t *guesses = block.guesses;
        const bool track_all = block.track_all;
        // Locals, not tally members: the counter stores below would
        // otherwise force the compiler to reload them every iteration.
        std::uint64_t dynamic_cond = 0;
        std::uint64_t total_miss = 0;
        // A two-phase predictor: where its next chunk starts, and the
        // conditional rows of the current one stepped so far.
        [[maybe_unused]] std::size_t chunk_end = begin;
        [[maybe_unused]] std::size_t indexed = 0;
        for (std::size_t i = begin; i < end; ++i) {
            if constexpr (KernelTwoPhase<P>) {
                if (i == chunk_end) { // the chunk's history work first
                    chunk_end = std::min(end, i + std::size_t(P::kIndexRows));
                    p.indexRows(c, i, chunk_end, track_all);
                    indexed = 0;
                }
            }
            const std::uint8_t m = meta[i];
            if ((m & 0x01) != 0) { // conditional
                const bool taken = (m & 0x10) != 0;
                bool guess;
                if constexpr (KernelTwoPhase<P>) {
                    guess = p.stepIndexed(indexed++, ips[i], taken);
                } else if constexpr (KernelSiteFold<P>) {
                    guess = p.fusedStepFolded(site_fold[sites[i]], taken);
                } else {
                    guess = detail::boundPredict(p, ips[i]);
                    const Branch b{ips[i], targets[i], OpCode(m & 0x0f),
                                   taken};
                    detail::boundTrain(p, b);
                    detail::boundTrack(p, b); // conditionals: always
                }
                if constexpr (kHook)
                    guesses[i] = guess ? 1 : 0;
                if constexpr (kMeasured) {
                    ++dynamic_cond;
                    const bool miss = guess != taken;
                    total_miss += miss ? 1 : 0;
                    if constexpr (kCollect)
                        site_mis[sites[i]] += miss ? 1 : 0;
                }
            } else if (track_all) {
                const Branch b{ips[i], targets[i], OpCode(m & 0x0f),
                               (m & 0x10) != 0};
                if constexpr (KernelTwoPhase<P>)
                    p.trackIndexed(b);
                else
                    detail::boundTrack(p, b);
            }
        }
        tally.dynamic_cond += dynamic_cond;
        tally.mispredictions += total_miss;
    }

    std::unique_ptr<P> owned_; // empty in the borrowing mode
    P *predictor_;
};

namespace detail
{
/** A finished run of the driver, as the document builders read it. */
struct RunDoc
{
    RunDoc(const char *simulator, const SimArgs &run_args, std::size_t n)
        : name(simulator), args(run_args), tallies(n), kernel_seconds(n),
          retired(n)
    {
    }

    const char *name;
    const SimArgs &args;
    std::string error; // open or trace error: the run has no counts
    std::uint64_t simulation_instr = 0;
    bool exhausted = false;
    std::uint64_t static_branches = 0;
    std::uint64_t dynamic_branches = 0;
    const std::uint64_t *site_ips = nullptr; // site id -> address
    const std::uint64_t *site_occ = nullptr; // site id -> measured occurrences
    Throughput tp;
    std::vector<KernelTally> tallies;
    // Per kernel: the time spent in its own runBlock calls.
    std::vector<double> kernel_seconds;
    // Per kernel: what it threw when the run retired it (null: ran on).
    std::vector<std::exception_ptr> retired;
};

/**
 * Steps @p kernels through the run of @p args block by block, as one run
 * (a kernel that throws ends it), and returns what @p doc makes of the
 * finished run — or errorResult(@p name, ...) for a run that could not
 * open or read its trace. Every entry point but runEach's is this call
 * with its own document builder.
 */
json_t runJoined(const char *name, const std::vector<BlockKernel *> &kernels,
                 const SimArgs &args,
                 const std::function<json_t(const RunDoc &)> &doc);

/**
 * Kernel @p k's part of @p run's throughput: the time spent in its own
 * runBlock calls plus an even share of the rest of the run (decode,
 * bookkeeping, the hook), so that the kernels' times sum to the run's.
 * A one-kernel run's is the run's own, timed or not.
 */
Throughput throughputOf(const RunDoc &run, std::size_t k);

/**
 * Steps @p kernels through one pass over the trace of @p args, as
 * independent runs that share its blocks, and returns @p doc(run, k) for
 * each kernel k. A kernel that throws is retired, its entry becomes
 * exceptionResult(), and the others run on. An open or trace error gives
 * every kernel still in the pass errorResult(@p name, ...).
 */
std::vector<json_t>
runEach(const char *name, const std::vector<BlockKernel *> &kernels,
        const SimArgs &args,
        const std::function<json_t(const RunDoc &, std::size_t)> &doc);

/** simulate() over one kernel: the driver's one-kernel case. */
json_t simulateKernel(BlockKernel &kernel, const SimArgs &args);

/**
 * simulate() over each of @p kernels in one pass over the trace
 * (runEach): entry k is simulateKernel(*kernels[k], args)'s document,
 * except for the timing fields: its `simulation_time` is
 * throughputOf(run, k), and `decompressed_bytes`,
 * `prefetch_stall_seconds` and `trace_load_seconds` are the pass's. The
 * prediction hook sees each kernel's index within @p kernels.
 */
std::vector<json_t> simulateEach(const std::vector<BlockKernel *> &kernels,
                                 const SimArgs &args);

/** The error object of a run that threw @p failure:
 *  {"error": "exception: <what()>"}. */
json_t exceptionResult(std::exception_ptr failure);
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
    FusedKernel<P> kernel(predictor);
    return detail::simulateKernel(kernel, args);
}

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
