/**
 * @file
 * A small open-addressing hash map keyed by 64-bit integers.
 *
 * The trace decoder keeps one entry per static branch to number branch
 * sites (sbbt::SiteDecoder); std::unordered_map's node allocations would
 * dominate that path, so the suite uses this flat, linear-probing map.
 * The decoder probes it only when its small direct-mapped site memo
 * misses, which on loop-heavy traces is a small share of the rows.
 */
#ifndef MBP_UTILS_FLAT_HASH_MAP_HPP
#define MBP_UTILS_FLAT_HASH_MAP_HPP

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "mbp/utils/hash.hpp"

namespace mbp::util
{

/**
 * Open-addressing map from std::uint64_t keys to @p V values.
 *
 * Grows at 70% load; iteration order is unspecified. Values must be
 * default-constructible and movable.
 */
template <typename V>
class FlatHashMap
{
  public:
    FlatHashMap() { rehash(kInitialSlots); }

    /** @return Value for @p key, inserting a default-constructed one. */
    V &
    operator[](std::uint64_t key)
    {
        std::size_t idx = probe(key);
        if (!slots_[idx].used) {
            if ((size_ + 1) * 10 > slots_.size() * 7) {
                rehash(slots_.size() * 2);
                idx = probe(key);
            }
            slots_[idx].used = true;
            slots_[idx].key = key;
            ++size_;
        }
        return slots_[idx].value;
    }

    /** @return Pointer to the value for @p key, or nullptr when absent. */
    V *
    find(std::uint64_t key)
    {
        std::size_t idx = probe(key);
        return slots_[idx].used ? &slots_[idx].value : nullptr;
    }
    const V *
    find(std::uint64_t key) const
    {
        std::size_t idx = probe(key);
        return slots_[idx].used ? &slots_[idx].value : nullptr;
    }

    /** @return Number of stored entries. */
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Calls @p fn(key, value) for every entry (unspecified order). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const auto &slot : slots_) {
            if (slot.used)
                fn(slot.key, slot.value);
        }
    }

    /** Removes all entries, keeping the capacity. */
    void
    clear()
    {
        for (auto &slot : slots_)
            slot.used = false;
        size_ = 0;
    }

  private:
    struct Slot
    {
        std::uint64_t key = 0;
        V value{};
        bool used = false;
    };

    static constexpr std::size_t kInitialSlots = 1024;

    std::size_t
    probe(std::uint64_t key) const
    {
        std::size_t mask = slots_.size() - 1;
        std::size_t idx = mix64(key) & mask;
        while (slots_[idx].used && slots_[idx].key != key)
            idx = (idx + 1) & mask;
        return idx;
    }

    void
    rehash(std::size_t new_slots)
    {
        assert((new_slots & (new_slots - 1)) == 0);
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(new_slots, Slot{});
        for (auto &slot : old) {
            if (!slot.used)
                continue;
            std::size_t idx = probe(slot.key);
            slots_[idx].used = true;
            slots_[idx].key = slot.key;
            slots_[idx].value = std::move(slot.value);
        }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
};

} // namespace mbp::util

#endif // MBP_UTILS_FLAT_HASH_MAP_HPP
