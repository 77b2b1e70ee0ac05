/**
 * @file
 * The MBPlib simulators (paper §IV, §VI-C).
 *
 * Because MBPlib is a library, user code owns main() and calls these
 * functions, optionally from inside its own optimization or scripting
 * logic:
 *
 * @code
 *   Gshare<25, 18> predictor;
 *   mbp::SimArgs args;
 *   args.trace_path = "traces/SHORT_SERVER-1.sbbt.flz";
 *   mbp::json_t result = mbp::simulate(predictor, args);
 *   std::cout << result.dump(2) << '\n';
 * @endcode
 */
#ifndef MBP_SIM_SIMULATOR_HPP
#define MBP_SIM_SIMULATOR_HPP

#include <concepts>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "mbp/json/json.hpp"
#include "mbp/sbbt/mem_trace.hpp"
#include "mbp/sim/predictor.hpp"

namespace mbp
{

/** Version string embedded in simulator output. */
inline constexpr const char *kMbpVersion = "v0.13.0";

/**
 * Branch-level observation callback of a simulation run.
 *
 * The canonical signature receives five arguments:
 *
 *   (branch, predicted, instr_number, measured, predictor_index)
 *
 * where `predictor_index` identifies which predictor of a
 * compare()/simulateMany() roster made the prediction (always 0 in
 * simulate()). Callables taking only the first four arguments — the
 * pre-v0.11 signature — convert implicitly and see every stream with the
 * index dropped, so existing hooks keep working unchanged.
 */
class PredictionHook
{
  public:
    PredictionHook() = default;

    /** Canonical 5-argument hooks (with predictor index). */
    template <typename F>
        requires(!std::same_as<std::remove_cvref_t<F>, PredictionHook> &&
                 std::invocable<F &, const Branch &, bool, std::uint64_t,
                                bool, std::size_t>)
    PredictionHook(F &&fn) // NOLINT(*-explicit-*): adapter by design
        : fn_(std::forward<F>(fn))
    {
    }

    /** Legacy 4-argument hooks (no predictor index). */
    template <typename F>
        requires(!std::same_as<std::remove_cvref_t<F>, PredictionHook> &&
                 !std::invocable<F &, const Branch &, bool, std::uint64_t,
                                 bool, std::size_t> &&
                 std::invocable<F &, const Branch &, bool, std::uint64_t,
                                bool>)
    PredictionHook(F &&fn) // NOLINT(*-explicit-*): adapter by design
        : fn_([inner = std::forward<F>(fn)](
                  const Branch &branch, bool predicted,
                  std::uint64_t instr_number, bool measured,
                  std::size_t /*predictor_index*/) mutable {
              inner(branch, predicted, instr_number, measured);
          })
    {
    }

    /** @return Whether a callable is installed. */
    explicit operator bool() const { return static_cast<bool>(fn_); }

    void
    operator()(const Branch &branch, bool predicted,
               std::uint64_t instr_number, bool measured,
               std::size_t predictor_index) const
    {
        fn_(branch, predicted, instr_number, measured, predictor_index);
    }

  private:
    std::function<void(const Branch &, bool, std::uint64_t, bool,
                       std::size_t)>
        fn_;
};

/** Parameters of a simulation run. */
struct SimArgs
{
    /** Path to the SBBT trace (possibly compressed). */
    std::string trace_path;

    /**
     * Instructions of warm-up: mispredictions in this prefix update the
     * predictor but are not counted in the metrics.
     */
    std::uint64_t warmup_instr = 0;

    /**
     * Instruction budget after warm-up; the run stops once this many
     * instructions have been simulated (or at end of trace).
     */
    std::uint64_t sim_instr = std::numeric_limits<std::uint64_t>::max();

    /** Forward only conditional branches to track() (paper Listing 1). */
    bool track_only_conditional = false;

    /** Maximum entries emitted in the `most_failed` output section. */
    std::size_t most_failed_cap = 64;

    /**
     * Collect per-branch statistics (the most_failed ranking and
     * num_most_failed_branches). Disabling removes the per-branch hash
     * update from the hot loop for maximum simulation speed — and omits
     * the `num_most_failed_branches` metric and the `most_failed` array
     * from the result, since no meaningful value exists for them; see
     * bench/ablation_sim_options.
     */
    bool collect_most_failed = true;

    /**
     * Packets the trace reader decodes per refill (sbbt::ReaderOptions).
     * The default block turns the per-packet virtual read of the seed
     * pipeline into one bulk read per 64 KiB; 1 restores the seed
     * packet-at-a-time behavior (useful for A/B measurement, see
     * bench/micro_bench's trace-pipeline cases).
     */
    std::size_t reader_block_packets = 4096;

    /**
     * Decompress the trace on a background thread (two-slot ring,
     * compress::PrefetchSource) so inflate/FLZ decode overlaps with
     * prediction. Results are bit-identical with or without; only
     * throughput changes. The residual serialization is reported as
     * `prefetch_stall_seconds` in the result metrics. Streaming runs
     * only: an `in_memory` arena is decoded inline (sbbt::MemTrace::load).
     */
    bool prefetch = true;

    /**
     * Decode the whole trace once into an in-memory arena
     * (sbbt::MemTrace) and simulate from it, instead of streaming
     * packets from disk. Results are bit-identical either way (the
     * conformance suite pins this); only the throughput profile changes:
     * the decode cost moves out of the predict loop into a one-time
     * `trace_load_seconds`, which pays off whenever the same trace feeds
     * more than one predictor (compare/simulateMany/sweeps) or the
     * predictor is cheap enough that decode dominates (paper Table III).
     */
    bool in_memory = false;

    /**
     * Upper bound, in bytes, on the arena a run may allocate when
     * `in_memory` is set; traces whose estimated footprint exceeds it
     * fall back to the streaming reader instead of failing. 0 means
     * unlimited. Ignored when `preloaded` supplies the arena.
     */
    std::uint64_t mem_budget = 0;

    /**
     * Already-decoded arena to simulate from, overriding `trace_path`
     * for input (the path is still echoed in the result metadata).
     * This is how mbp::sweep shares one decode across all predictor
     * cells of a trace.
     */
    std::shared_ptr<const sbbt::MemTrace> preloaded;

    /**
     * Branch-level observation hook: invoked for every conditional branch
     * with the prediction made, the 1-based instruction number of the
     * branch, whether the branch falls in the measured (post-warmup)
     * window, and the index of the predictor that made the prediction
     * (0 in simulate(); 0..N-1 per branch in compare()/simulateMany(), in
     * roster order). Branches arrive in trace order, each with its
     * predictors in index order. In every entry point (simulate(),
     * compare(), simulateMany(), their fused forms, and
     * frontend::simulate()/simulateMany() with the front ends' direction
     * guesses) the hook fires
     * after the train/track of the whole block of up to
     * kKernelBlockBranches branches that holds the branch, so a hook
     * that inspects a predictor sees it already trained on that block.
     * Lets external checkers follow the simulation's prediction stream —
     * the conformance tests capture it exactly through the hook, and
     * mbp::testkit's metamorphic oracles rebuild per-window misprediction
     * counts from it. Accepts both the canonical 5-argument signature and
     * the legacy 4-argument one (see PredictionHook). Leave empty (the
     * default) and the loop writes no guesses at all.
     */
    PredictionHook prediction_hook;
};

/**
 * Runs @p predictor over the trace and returns the JSON document described
 * in paper §IV-E (metadata / metrics / predictor_statistics / most_failed).
 *
 * On error (unreadable or corrupt trace) the returned object contains a
 * top-level "error" string instead of "metrics".
 */
json_t simulate(Predictor &predictor, const SimArgs &args);

/**
 * The comparison simulator (paper §VI-C): runs two predictors in parallel
 * over the same trace. The `most_failed` section ranks the branches by the
 * absolute difference in mispredictions between both predictors, telling
 * which branches each design predicts better.
 *
 * A 2-ary wrapper over the same N-predictor core as simulateMany(); the
 * output document is unchanged from previous releases.
 */
json_t compare(Predictor &a, Predictor &b, const SimArgs &args);

/**
 * The multi-predictor simulator: one pass over the trace feeds all
 * @p predictors, so an N-way roster comparison costs one decode plus N
 * predict/train loops instead of N full decodes. Combine with
 * `SimArgs::in_memory` (or `preloaded`) and even the one decode is an
 * in-memory replay.
 *
 * Output follows the compare() document generalized to N: metadata has
 * `predictor_0..predictor_{N-1}`, metrics have `mpki_i` /
 * `mispredictions_i` / `accuracy_i`, and `most_failed` ranks branches by
 * `mpki_spread` (max − min misprediction MPKI across predictors; for
 * N == 2 the field is the signed `mpki_diff`, as in compare()). Each
 * predictor trains and tracks independently. Like simulate(),
 * `SimArgs::collect_most_failed` gates the per-branch ranking (when
 * disabled, `most_failed` and `num_most_failed_branches` are omitted)
 * and `SimArgs::prediction_hook` fires for every (conditional branch ×
 * predictor) pair with the predictor's roster index.
 */
json_t simulateMany(const std::vector<Predictor *> &predictors,
                    const SimArgs &args);

/**
 * Analytic CPI model from the paper's motivation (§II): an in-order
 * machine fetching @p fetch_width instructions per cycle that resolves
 * branches in pipeline stage @p resolve_stage.
 *
 * CPI = 1/fetch_width + (mpki/1000) * (resolve_stage - 1).
 */
constexpr double
analyticCpi(int fetch_width, int resolve_stage, double mpki)
{
    return 1.0 / fetch_width + (mpki / 1000.0) * (resolve_stage - 1);
}

/** Speedup obtained by lowering MPKI on the analytic machine of §II. */
constexpr double
analyticSpeedup(int fetch_width, int resolve_stage, double mpki_before,
                double mpki_after)
{
    return analyticCpi(fetch_width, resolve_stage, mpki_before) /
           analyticCpi(fetch_width, resolve_stage, mpki_after);
}

} // namespace mbp

#endif // MBP_SIM_SIMULATOR_HPP
