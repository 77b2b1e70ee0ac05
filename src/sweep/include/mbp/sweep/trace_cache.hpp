/**
 * @file
 * Memory-budgeted LRU cache of decoded trace arenas.
 *
 * A sweep campaign visits the same trace once per predictor; the cache
 * makes sure the expensive part — decompressing and decoding the SBBT
 * stream — happens exactly once per trace, with every cell (and worker
 * thread) sharing the immutable sbbt::MemTrace that results. Traces whose
 * estimated arena would not fit the byte budget are refused (a *streamed
 * fallback*, counted, never an error), so a campaign can always complete
 * no matter how small the budget is.
 *
 * Keying is by *content*, not by path: the key is the content hash of
 * the trace file's bytes (plus a fingerprint of the decode options), so
 * `./t.sbbt`, `t.sbbt` and the absolute spelling — or a byte-identical
 * copy under another name — all share one arena and count once against
 * the budget. A file that cannot be hashed (unreadable, racing writer)
 * falls back to its weakly-canonical path as the key. Consequently the
 * cache assumes a trace file's content is stable for the lifetime of
 * the cache (one campaign); rewriting a trace mid-campaign while reusing
 * its path yields the arena of whichever content was hashed first.
 *
 * With an attached persistent sbbt::ArenaStore, a cache miss first tries
 * to map the trace's SBBT-A sidecar (zero decode, counted in
 * `mapped_loads`) and only decodes — materializing the sidecar for every
 * later process — when no valid sidecar exists.
 */
#ifndef MBP_SWEEP_TRACE_CACHE_HPP
#define MBP_SWEEP_TRACE_CACHE_HPP

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "mbp/sbbt/arena_store.hpp"
#include "mbp/sbbt/mem_trace.hpp"

namespace mbp::sweep
{

/** Default arena budget for sweeps: 1 GiB. */
inline constexpr std::uint64_t kDefaultMemBudget = std::uint64_t(1) << 30;

/**
 * Thread-safe decode-once trace cache.
 *
 * Concurrency: the first thread to request a trace decodes it; threads
 * requesting the same trace meanwhile block until that one decode
 * finishes and then share its arena (they count as cache hits — the
 * decode happened once — unless the decode *failed*, which counts them
 * as `failed_waits`, never as hits). Distinct traces decode
 * concurrently. Eviction is LRU over ready entries; an arena still
 * referenced by running cells survives eviction (the shared_ptr keeps
 * it alive), the cache merely stops accounting for it. release() drops
 * an arena the same way as soon as its caller knows it is done with it;
 * sweep::run does so after the last pass over each identity().
 */
class TraceCache
{
  public:
    /** Counters surfaced in the sweep aggregate's `trace_cache` block. */
    struct Stats
    {
        std::uint64_t hits = 0;   //!< arena shared with an earlier load
        std::uint64_t misses = 0; //!< arena loads initiated
        std::uint64_t evictions = 0;
        /** Bytes of the arenas cached now; at the end of a sweep this
         *  is 0, since run() releases each arena after its last pass. */
        std::uint64_t resident_bytes = 0;
        /** Highest resident_bytes reached. Counted as each arena is
         *  added, before eviction makes room for it, so under a budget
         *  it can exceed the budget by up to one arena. */
        std::uint64_t peak_resident_bytes = 0;
        std::uint64_t streamed_fallbacks = 0; //!< budget refusals
        /** Waits on an in-flight load that then failed: the waiter got
         *  no arena, so it is not a hit (trace_cache.cpp kept the
         *  aggregate truthful only once this was split out). */
        std::uint64_t failed_waits = 0;
        /** Misses served zero-decode by mapping an SBBT-A sidecar from
         *  the attached persistent store. */
        std::uint64_t mapped_loads = 0;
    };

    /**
     * @param budget_bytes Max resident arena bytes; 0 means unlimited.
     * @param store        Optional persistent SBBT-A store consulted
     *                     before decoding (see the file comment).
     */
    explicit TraceCache(std::uint64_t budget_bytes = kDefaultMemBudget,
                        std::shared_ptr<sbbt::ArenaStore> store = nullptr)
        : budget_(budget_bytes), store_(std::move(store))
    {}

    TraceCache(const TraceCache &) = delete;
    TraceCache &operator=(const TraceCache &) = delete;

    /**
     * Returns the decoded arena for @p path, loading it (once, shared
     * with concurrent requesters) on first use.
     *
     * @param path    Trace file; keyed by its content (see above).
     * @param options Decode pipeline knobs for a cache-miss load. The
     *                decode-relevant fields are part of the cache key,
     *                so acquires with different options never silently
     *                share an arena decoded under other knobs.
     * @param error   Receives the decode failure, "" otherwise (optional).
     * @return The shared arena; nullptr when the trace exceeds the budget
     *         (streamed fallback, @p error stays "") or when the decode
     *         failed (@p error says why). Callers should fall back to the
     *         streaming reader in both cases.
     */
    std::shared_ptr<const sbbt::MemTrace>
    acquire(const std::string &path, const sbbt::ReaderOptions &options,
            std::string *error = nullptr);

    /**
     * Drops the cached arena for (@p path, @p options), for a caller that
     * knows no later acquire wants it: the entry is erased and its bytes
     * leave resident_bytes. Holders of the arena keep a valid one (their
     * shared_ptr keeps it alive); a later acquire decodes it afresh and
     * counts as a miss. A no-op when the trace is not cached, or its load
     * is still in flight.
     */
    void release(const std::string &path,
                 const sbbt::ReaderOptions &options);

    /** The key of (@p path, @p options): two listings share one entry
     *  exactly when their identities are equal (see the file comment). */
    std::string identity(const std::string &path,
                         const sbbt::ReaderOptions &options);

    /** @return A consistent snapshot of the counters. */
    Stats stats() const;

    /** @return The configured budget in bytes (0 = unlimited). */
    std::uint64_t budgetBytes() const { return budget_; }

  private:
    struct Entry
    {
        enum class State { kLoading, kReady, kFailed };
        State state = State::kLoading;
        std::shared_ptr<const sbbt::MemTrace> trace;
        std::string error;
        std::uint64_t bytes = 0;
        std::uint64_t last_used = 0;
    };

    /** Content-hash cache key for (path, options); hashes the file on
     *  first sight of @p path and memoizes per verbatim path string.
     *  @p lock (held on entry and exit) is dropped around the I/O. */
    std::string keyFor(std::unique_lock<std::mutex> &lock,
                       const std::string &path,
                       const sbbt::ReaderOptions &options);

    void evictOverBudgetLocked(const std::string &keep);

    const std::uint64_t budget_;
    std::shared_ptr<sbbt::ArenaStore> store_;
    mutable std::mutex mutex_;
    std::condition_variable ready_cv_;
    std::map<std::string, std::shared_ptr<Entry>> entries_;
    std::map<std::string, std::string> key_memo_; // verbatim path -> id
    std::uint64_t tick_ = 0;
    Stats stats_;
};

} // namespace mbp::sweep

#endif // MBP_SWEEP_TRACE_CACHE_HPP
