/**
 * @file
 * Parallel sweep campaigns: run a (predictor x trace) grid on a
 * fixed-size thread pool.
 *
 * The paper's evaluation is a grid — every predictor of Table III over
 * every trace of the suite — and the cells share nothing: each one is a
 * fresh predictor instance reading its own trace stream. Because MBPlib
 * is a library whose simulate() owns no global state (paper §VI-B), the
 * grid parallelizes embarrassingly, the same way ChampSim evaluations
 * are farmed out across cores. This module packages that pattern:
 *
 * @code
 *   mbp::sweep::Campaign campaign;
 *   campaign.predictors = {{"gshare", [] { return ...; }}, ...};
 *   campaign.traces = {"a.sbbt.flz", "b.sbbt.flz"};
 *   mbp::json_t result = mbp::sweep::run(campaign, 8);
 * @endcode
 *
 * Results are collected in deterministic grid order (predictor-major)
 * and are bit-identical to serial per-cell simulate() runs, except for
 * the throughput observability fields (`simulation_time`,
 * `branches_per_second`, `decompressed_bytes`, `prefetch_stall_seconds`,
 * `trace_load_seconds`), which measure the run itself. A failing cell
 * (unreadable trace, unknown predictor, a predictor or factory that
 * throws) becomes an error object in place; it never aborts the
 * campaign.
 */
#ifndef MBP_SWEEP_SWEEP_HPP
#define MBP_SWEEP_SWEEP_HPP

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mbp/json/json.hpp"
#include "mbp/sim/concepts.hpp"
#include "mbp/sim/kernels.hpp"
#include "mbp/sim/simulator.hpp"
#include "mbp/sweep/trace_cache.hpp"

namespace mbp::sweep
{

/**
 * Resolves a requested worker count against the detected hardware
 * concurrency: an explicit request wins; request 0 defers to
 * @p hardware; and when the hardware count is itself unknown (the
 * standard allows hardware_concurrency() to return 0) the pool falls
 * back to a small fixed size of 2 rather than degrading to serial
 * execution — a sweep should still overlap decode and simulation on
 * such platforms.
 *
 * Pure so the unknown-hardware branch is unit-testable without mocking
 * std::thread.
 */
constexpr unsigned
effectiveJobs(unsigned requested, unsigned hardware)
{
    if (requested != 0)
        return requested;
    return hardware != 0 ? hardware : 2;
}

/**
 * Runs fn(0), ..., fn(n-1) distributed over a fixed pool of @p jobs
 * threads (dynamic work stealing via an atomic cursor, so long cells do
 * not serialize behind short ones).
 *
 * @param jobs Pool size; 0 means std::thread::hardware_concurrency()
 *             (or a pool of 2 when that is unknown, see effectiveJobs),
 *             and values < 2 (or n < 2) run inline on the caller.
 * @param fn   Must not throw: an escaping exception in a worker would
 *             terminate the process. Called exactly once per index,
 *             possibly concurrently from different threads.
 */
void parallelFor(std::size_t n, unsigned jobs,
                 const std::function<void(std::size_t)> &fn);

/** The most workers a campaign may ask for: `mbp_sweep --jobs` and the
 *  JSON spec's "jobs" key both reject larger values. */
inline constexpr unsigned kMaxJobs = 4096;

/** One predictor column of the campaign grid. */
struct PredictorSpec
{
    /** Display name used in cell documents and the aggregate. */
    std::string name;
    /**
     * Factory producing a *fresh* instance per cell. Must be callable
     * concurrently. A null factory (or one returning null) marks every
     * cell of this predictor as failed with an "unknown predictor"
     * error, mirroring the CLI's roster lookup; one that throws fails
     * just its own cells with an "exception: ..." error.
     */
    std::function<std::unique_ptr<Predictor>()> make;
    /**
     * Optional fused factory: a fresh block kernel (mbp/sim/kernels.hpp)
     * over an instance of the same configuration `make` builds, with the
     * predictor's concrete type known at compile time. When present
     * (makeSpec() and rosterSpec() set it) run() steps it instead of
     * a virtual FusedKernel<Predictor> over make()'s instance, unless
     * Campaign::fused is disabled; only throughput changes. The rules
     * of `make` apply.
     */
    std::function<std::unique_ptr<BlockKernel>()> make_kernel;
};

/**
 * Builds a PredictorSpec for a concrete predictor type, checked at
 * compile time: P must satisfy the full predictor contract *and* be a
 * concrete Predictor subclass (mbp::RosterPredictor), so an interface
 * drift — a renamed override, a signature change, an accidentally
 * abstract type — fails at the makeSpec call site instead of deep
 * inside the campaign machinery. Constructor arguments are captured by
 * value: each cell still gets a fresh instance.
 *
 * @code
 *   campaign.predictors = {
 *       mbp::sweep::makeSpec<mbp::pred::Gshare<15, 17>>("gshare"),
 *       mbp::sweep::makeSpec<mbp::pred::Tage>("tage-big",
 *                                             Tage::Config::geometric(12)),
 *   };
 * @endcode
 */
template <RosterPredictor P, typename... Args>
PredictorSpec
makeSpec(std::string name, Args... args)
{
    PredictorSpec spec;
    spec.name = std::move(name);
    spec.make = [args...] { return std::make_unique<P>(args...); };
    spec.make_kernel = [args...] { return makeFusedKernel<P>(args...); };
    return spec;
}

/**
 * The PredictorSpec of roster predictor @p name (mbp::pred): both its
 * virtual factory and its fused kernel factory, as campaignFromJson and
 * `mbp_sweep --predictors` build them. An unknown name gives factories
 * that return null, so its cells fail with "unknown predictor".
 */
PredictorSpec rosterSpec(const std::string &name);

/** A (predictor x trace) campaign specification. */
struct Campaign
{
    std::vector<PredictorSpec> predictors;
    std::vector<std::string> traces;
    /** Shared by every cell; trace_path is overwritten per cell. The
     *  in_memory/mem_budget/preloaded fields are managed by run() (see
     *  the campaign-level knobs below) and any caller-set values are
     *  ignored. */
    SimArgs base_args;
    /** Default worker count (0 = hardware concurrency, at most
     *  kMaxJobs); run() callers and the CLI's --jobs override it. */
    unsigned jobs = 0;
    /**
     * Decode each trace once into a shared in-memory arena (the
     * TraceCache) that every predictor cell of the trace steps through
     * on its own — the default. Disable (`--streaming`) to hold no
     * arena at all: each trace is then streamed in passes that step
     * several of its predictors together (see run()).
     */
    bool in_memory = true;
    /**
     * TraceCache budget in bytes (0 = unlimited). Traces whose arena
     * would not fit fall back to streaming — a campaign never fails
     * because of the budget.
     */
    std::uint64_t mem_budget = kDefaultMemBudget;
    /**
     * Run cells through the fused compile-time kernels
     * (PredictorSpec::make_kernel) when available, the default. Disable
     * (`--no-fused`, or `"fused": false` in the JSON spec) to force the
     * virtual simulate() everywhere — useful for A/B measurement; the
     * results themselves are bit-identical.
     */
    bool fused = true;
    /**
     * Consult (and populate) the persistent SBBT-A arena store
     * (sbbt::ArenaStore) on trace-cache misses: the first campaign ever
     * to touch a trace decodes it and leaves a sidecar behind; later
     * campaigns map it zero-decode. Off by default — the CLI enables it
     * via `--arena-cache[=DIR]` or a non-empty $MBP_ARENA_CACHE. Only
     * meaningful with in_memory. Results are bit-identical either way
     * (the conformance suite pins this).
     */
    bool arena_cache = false;
    /** Explicit store directory; "" defers to ArenaStore::resolveDir
     *  ($MBP_ARENA_CACHE, then the user cache directory). */
    std::string arena_cache_dir;
    /**
     * Compose every predictor into a front end (mbp::frontend): each
     * cell wraps the kernel a plain cell would run (the spec's fused
     * kernel under `fused`, else a virtual one around make()'s instance)
     * into a FrontEnd configured by frontend_spec, and its document is
     * frontend::simulate()'s. An invalid spec (possible in a campaign
     * built in code) fails every cell with "invalid frontend spec:
     * ...". Enabled by the
     * CLI's `--frontend[=SPEC]` or the JSON `"frontend"` key (a spec
     * string, or `true` for the default configuration).
     */
    bool frontend = false;
    /** parseFrontEndSpec grammar; "" = default configuration. Only read
     *  when frontend is set. */
    std::string frontend_spec;
};

/**
 * Builds a campaign from the JSON spec consumed by mbp_sweep:
 *
 * @code{.json}
 *   {
 *     "predictors": ["gshare", "tage-scl"],        // roster names
 *     "traces": ["traces/a.sbbt.flz", "..."],
 *     "warmup_instr": 0,                           // optional
 *     "sim_instr": 10000000,                       // optional
 *     "track_only_conditional": false,             // optional
 *     "collect_most_failed": true,                 // optional
 *     "jobs": 8,                                   // optional, <= 4096
 *     "in_memory": true,                           // optional
 *     "mem_budget": 1073741824,                    // optional, bytes
 *     "fused": true,                               // optional
 *     "arena_cache": false,                        // optional
 *     "arena_cache_dir": "/path/to/store",         // optional
 *     "frontend": "btb-sets=512,ras=32"            // optional, or a bool
 *   }
 * @endcode
 *
 * Predictor names are resolved against the roster (mbp::pred). Unknown
 * names fail the parse (rather than every cell at run time) so a typo
 * is caught before hours of simulation; so do an invalid "frontend"
 * spec string and a count out of range (a negative or fractional
 * number, or "jobs" above kMaxJobs).
 *
 * @return Whether the spec was well formed; on failure @p error says why.
 */
bool campaignFromJson(const json_t &spec, Campaign &out,
                      std::string &error);

/**
 * Executes the campaign grid on @p jobs worker threads.
 *
 * @param jobs 0 defers to campaign.jobs (and then to hardware
 *             concurrency).
 * @return A document with three sections:
 *   - "metadata": tool/version, grid dimensions, jobs, shared SimArgs;
 *   - "cells": one entry per (predictor, trace) pair in predictor-major
 *     grid order: {"predictor", "trace", "result": <simulate() doc>};
 *   - "aggregate": campaign wall time, the successful cells' summed
 *     `dynamic_branches` and their total branches/second across the
 *     pool, failed-cell count, per-predictor rollups (arithmetic
 *     mean MPKI over the traces, total mispredictions) — the Table III
 *     summary form — and a "trace_cache" block ({hits, misses,
 *     evictions, resident_bytes, peak_resident_bytes,
 *     streamed_fallbacks, failed_waits, mapped_loads}) reporting how the
 *     decode-once cache behaved (all zero when in_memory is off).
 *     `resident_bytes` is the value at the end of the run, which is 0
 *     once every trace's arena has been released; `peak_resident_bytes`
 *     is the most the cache held at once.
 *
 * Cells are *scheduled* as one list of passes. A pass reads one trace
 * once and steps each predictor it holds through every block
 * (detail::simulateEach, or frontend::simulateEach). The list walks the
 * traces in waves of `jobs`, pass-major inside a wave, so that a wave's
 * first passes read distinct traces, one per worker; with one worker
 * this is trace-major order. A trace's P predictors are dealt
 * round-robin over its G passes. A streamed trace gets G = 1 in a full
 * wave and G = min(P, ceil(jobs / r)) in a last wave of r < jobs traces,
 * so that every worker still has a pass. An in-memory trace's arena is
 * decoded once (the TraceCache) however its predictors are grouped, so
 * it gets G = P, the finest items; the last pass over a cache entry
 * (TraceCache::identity) releases its arena.
 *
 * A cell's `simulation_time` (and so `branches_per_second`) is its
 * kernel's own stepping time plus an even share of the pass's decode
 * and bookkeeping, so a pass's cells sum to the pass's time;
 * `prefetch_stall_seconds` is the pass's. A predictor that throws fails
 * only its own cell. A base_args.prediction_hook sees the predictor's
 * index in Campaign::predictors. Cells are *reported* in predictor-major
 * grid order, whatever the schedule.
 */
json_t run(const Campaign &campaign, unsigned jobs = 0);

/**
 * Flattens a run() result to CSV: one row per cell with the headline
 * metrics, empty metric columns and a message in the "error" column for
 * failed cells.
 */
std::string toCsv(const json_t &result);

} // namespace mbp::sweep

#endif // MBP_SWEEP_SWEEP_HPP
