/**
 * @file
 * Decode-once trace cache implementation.
 */
#include "mbp/sweep/trace_cache.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "mbp/sbbt/arena_file.hpp"

namespace mbp::sweep
{

std::string
TraceCache::keyFor(std::unique_lock<std::mutex> &lock,
                   const std::string &path,
                   const sbbt::ReaderOptions &options)
{
    // Caller holds @p lock; hashing the file does I/O, so the memo miss
    // path drops it. Two threads racing on the same new path both hash
    // it and agree on the result — emplace keeps the first.
    std::string id;
    auto memo = key_memo_.find(path);
    if (memo != key_memo_.end()) {
        id = memo->second;
    } else {
        lock.unlock();
        std::uint64_t hash = 0;
        if (sbbt::fileContentHash(path, hash)) {
            char hex[20];
            std::snprintf(hex, sizeof hex, "h:%016llx",
                          static_cast<unsigned long long>(hash));
            id = hex;
        } else {
            // Unreadable file: key by canonicalized path so at least the
            // ./t.sbbt vs t.sbbt aliases collapse; the load below will
            // surface the real error.
            std::error_code ec;
            auto canon = std::filesystem::weakly_canonical(path, ec);
            id = "p:" + (ec ? path : canon.string());
        }
        lock.lock();
        key_memo_.emplace(path, id);
    }
    // Decode options are part of the identity: arenas decoded under
    // different knobs must not silently alias. The prefetch knobs are
    // not among them, since MemTrace::load always decodes inline.
    char suffix[32];
    std::snprintf(suffix, sizeof suffix, "#%zu", options.block_packets);
    return id + suffix;
}

std::shared_ptr<const sbbt::MemTrace>
TraceCache::acquire(const std::string &path,
                    const sbbt::ReaderOptions &options, std::string *error)
{
    if (error != nullptr)
        error->clear();

    std::unique_lock<std::mutex> lock(mutex_);
    const std::string key = keyFor(lock, path, options); // may drop it
    auto it = entries_.find(key);
    if (it == entries_.end()) {
        // The budget check peeks the trace header from disk, so drop the
        // lock; re-lookup afterwards in case another thread started (or
        // finished) this trace meanwhile.
        lock.unlock();
        const std::uint64_t estimate =
            budget_ > 0 ? sbbt::MemTrace::estimateFileBytes(path) : 0;
        lock.lock();
        it = entries_.find(key);
        if (it == entries_.end()) {
            if (budget_ > 0 && estimate > budget_) {
                ++stats_.streamed_fallbacks;
                return nullptr; // doesn't fit: stream it, not an error
            }
            // This thread loads; peers arriving meanwhile wait below.
            auto entry = std::make_shared<Entry>();
            entries_.emplace(key, entry);
            ++stats_.misses;
            lock.unlock();

            std::string load_error;
            std::shared_ptr<const sbbt::MemTrace> trace;
            sbbt::ArenaStore::Info info;
            if (store_ != nullptr)
                trace = store_->acquire(path, options, &load_error, &info);
            else
                trace = sbbt::MemTrace::load(path, options, &load_error);

            lock.lock();
            if (trace == nullptr) {
                entry->state = Entry::State::kFailed;
                entry->error = load_error;
                // Drop the failed entry so a later acquire retries (the
                // file may be rewritten between cells); current waiters
                // still see the error through their shared_ptr.
                entries_.erase(key);
                key_memo_.erase(path); // re-key too: content may change
                ready_cv_.notify_all();
                if (error != nullptr)
                    *error = load_error;
                return nullptr;
            }
            if (info.mapped)
                ++stats_.mapped_loads;
            entry->state = Entry::State::kReady;
            entry->trace = trace;
            entry->bytes = trace->memoryBytes();
            entry->last_used = ++tick_;
            stats_.resident_bytes += entry->bytes;
            stats_.peak_resident_bytes = std::max(
                stats_.peak_resident_bytes, stats_.resident_bytes);
            evictOverBudgetLocked(key);
            ready_cv_.notify_all();
            return trace;
        }
    }

    // Found: share the arena, waiting out an in-flight load if needed.
    // Whether this was a hit is only known once the load settles — a
    // waiter whose load fails got nothing and must not count as one.
    std::shared_ptr<Entry> entry = it->second;
    ready_cv_.wait(lock,
                   [&] { return entry->state != Entry::State::kLoading; });
    if (entry->state == Entry::State::kFailed) {
        ++stats_.failed_waits;
        if (error != nullptr)
            *error = entry->error;
        return nullptr;
    }
    ++stats_.hits;
    entry->last_used = ++tick_;
    return entry->trace;
}

void
TraceCache::evictOverBudgetLocked(const std::string &keep)
{
    while (budget_ > 0 && stats_.resident_bytes > budget_) {
        auto victim = entries_.end();
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (it->second->state != Entry::State::kReady ||
                it->first == keep)
                continue;
            if (victim == entries_.end() ||
                it->second->last_used < victim->second->last_used)
                victim = it;
        }
        if (victim == entries_.end())
            return; // only the just-loaded arena remains; keep it
        stats_.resident_bytes -= victim->second->bytes;
        ++stats_.evictions;
        entries_.erase(victim);
    }
}

void
TraceCache::release(const std::string &path,
                    const sbbt::ReaderOptions &options)
{
    std::unique_lock<std::mutex> lock(mutex_);
    const std::string key = keyFor(lock, path, options);
    auto it = entries_.find(key);
    if (it == entries_.end() || it->second->state != Entry::State::kReady)
        return;
    stats_.resident_bytes -= it->second->bytes;
    entries_.erase(it);
}

std::string
TraceCache::identity(const std::string &path,
                     const sbbt::ReaderOptions &options)
{
    std::unique_lock<std::mutex> lock(mutex_);
    return keyFor(lock, path, options);
}

TraceCache::Stats
TraceCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace mbp::sweep
