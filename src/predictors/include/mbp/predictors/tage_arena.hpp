/**
 * @file
 * The flat storage layer shared by the TAGE family (TAGE, BATAGE,
 * TAGE-SC-L): every tagged table of a predictor lives in one contiguous,
 * 64-byte-aligned arena of packed 4-byte entries, addressed through
 * per-table offset/mask metadata.
 *
 * The seed implementation kept a `std::vector<Entry>` per table inside a
 * `std::vector<Table>` — two dependent pointer loads per entry touch, and
 * table storage scattered across separate heap blocks. The arena removes
 * both: an entry access is `data[flat]` on one allocation whose base is
 * cache-line aligned, where the flat index (table offset + index) comes
 * from the predictor's TaggedHistory, which owns the bank geometry.
 *
 * Entries are packed into fixed 32-bit bitfields (tag in the low half,
 * two 8-bit counter payloads in the high half). The packing imposes hard
 * field limits — 16 tag bits, 8 counter bits — which the predictors
 * enforce at configuration time (std::invalid_argument, not assert, so
 * release builds reject bad geometry too). A zero raw word is exactly
 * the default-constructed entry of the seed layout, so a zero-filled
 * arena reproduces the original initial state bit for bit.
 */
#ifndef MBP_PREDICTORS_TAGE_ARENA_HPP
#define MBP_PREDICTORS_TAGE_ARENA_HPP

#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "mbp/utils/bits.hpp"

namespace mbp::pred
{

/** Geometry of one tagged TAGE-family table. */
struct TageTableSpec
{
    int log_size = 10;   //!< log2 of the number of entries
    int history_len = 8; //!< global history bits folded into the index
    int tag_bits = 9;    //!< partial tag width
};

/**
 * Packed TAGE tagged-table entry: tag in bits [0,16), the signed
 * prediction counter in [16,24) and the useful counter in [24,32).
 * Counter values are stored exactly as the seed's 8-bit SatCounters did
 * (two's complement for the prediction counter); clamping to the
 * configured widths stays in the predictor, as before.
 */
class PackedTageEntry
{
  public:
    static constexpr int kTagBits = 16;    //!< packed tag field width
    static constexpr int kCounterBits = 8; //!< packed counter field width

    constexpr std::uint16_t tag() const
    {
        return static_cast<std::uint16_t>(raw_ & 0xffffu);
    }
    constexpr void
    setTag(std::uint16_t tag)
    {
        raw_ = (raw_ & ~0xffffu) | tag;
    }

    /** Signed prediction counter, sign-extended from the packed byte. */
    constexpr int
    ctr() const
    {
        return static_cast<std::int8_t>((raw_ >> 16) & 0xffu);
    }
    constexpr void
    setCtr(int value)
    {
        raw_ = (raw_ & ~0xff0000u) |
               ((static_cast<std::uint32_t>(value) & 0xffu) << 16);
    }

    constexpr int
    useful() const
    {
        return static_cast<int>((raw_ >> 24) & 0xffu);
    }
    constexpr void
    setUseful(int value)
    {
        raw_ = (raw_ & 0x00ffffffu) |
               ((static_cast<std::uint32_t>(value) & 0xffu) << 24);
    }

  private:
    std::uint32_t raw_ = 0;
};

static_assert(sizeof(PackedTageEntry) == 4);
static_assert(std::is_trivially_copyable_v<PackedTageEntry>);

/**
 * Packed BATAGE tagged-table entry: tag in bits [0,16), the dual counter
 * (#taken, #not-taken) in the two high bytes. Also used for the BATAGE
 * bimodal base (tag field simply unused), mirroring the seed layout.
 */
class PackedDualEntry
{
  public:
    static constexpr int kTagBits = 16;    //!< packed tag field width
    static constexpr int kCounterBits = 8; //!< packed counter field width

    constexpr std::uint16_t tag() const
    {
        return static_cast<std::uint16_t>(raw_ & 0xffffu);
    }
    constexpr void
    setTag(std::uint16_t tag)
    {
        raw_ = (raw_ & ~0xffffu) | tag;
    }

    constexpr unsigned numTaken() const { return (raw_ >> 16) & 0xffu; }
    constexpr void
    setNumTaken(unsigned value)
    {
        raw_ = (raw_ & ~0xff0000u) | ((value & 0xffu) << 16);
    }

    constexpr unsigned numNotTaken() const { return (raw_ >> 24) & 0xffu; }
    constexpr void
    setNumNotTaken(unsigned value)
    {
        raw_ = (raw_ & 0x00ffffffu) | ((value & 0xffu) << 24);
    }

  private:
    std::uint32_t raw_ = 0;
};

static_assert(sizeof(PackedDualEntry) == 4);
static_assert(std::is_trivially_copyable_v<PackedDualEntry>);

/**
 * Tables a TAGE-family predictor may have at most: the fused lookup
 * carries the hit set as one 64-bit mask (provider = highest set bit).
 */
inline constexpr std::size_t kMaxTaggedTables = 64;

/**
 * Entries all tagged tables of a predictor may hold together: a flat
 * index is 32 bits, and the bound keeps the arena at 1 GiB of packed
 * entries (one table of the largest log_size).
 */
inline constexpr std::uint64_t kMaxTaggedEntries = std::uint64_t(1) << 28;

/**
 * The longest global history a tagged table may fold. The history ring
 * the predictor keeps is sized by the longest table, so this bounds it
 * (at 512 bytes); published TAGE geometries stay below 3000 bits.
 */
inline constexpr int kMaxHistoryLength = 4096;

/**
 * Validates a TAGE-family geometry against the packed-entry limits and
 * the bounds above, before anything is allocated: the tagged tables
 * @p specs and the bimodal base of 2^@p log_bimodal_size entries.
 * Throws std::invalid_argument naming the offending field. @p kind is
 * the predictor name used in the message.
 */
inline void
validateTaggedGeometry(const char *kind,
                       const std::vector<TageTableSpec> &specs,
                       int log_bimodal_size)
{
    const std::string name(kind);
    if (log_bimodal_size < 1 || log_bimodal_size > 28)
        throw std::invalid_argument(name +
                                    ": log_bimodal_size out of [1, 28]");
    if (specs.empty())
        throw std::invalid_argument(name +
                                    ": at least one tagged table required");
    if (specs.size() > kMaxTaggedTables)
        throw std::invalid_argument(
            name + ": at most 64 tagged tables (the fused lookup's hit "
                   "bitmask is 64 bits)");
    std::uint64_t entries = 0;
    for (const TageTableSpec &spec : specs) {
        if (spec.log_size < 1 || spec.log_size > 28)
            throw std::invalid_argument(name +
                                        ": table log_size out of [1, 28]");
        if (spec.history_len < 1 || spec.history_len > kMaxHistoryLength)
            throw std::invalid_argument(
                name + ": table history_len out of [1, " +
                std::to_string(kMaxHistoryLength) + "]");
        if (spec.tag_bits < 2 || spec.tag_bits > PackedTageEntry::kTagBits)
            throw std::invalid_argument(
                name + ": table tag_bits out of [2, 16] (the packed "
                       "entry's tag field is 16 bits)");
        entries += std::uint64_t(1) << spec.log_size;
    }
    if (entries > kMaxTaggedEntries)
        throw std::invalid_argument(
            name + ": tables' log_size sum to more than 2^28 entries");
}

/**
 * One contiguous, 64-byte-aligned allocation holding every tagged table
 * of a predictor; which entries belong to which table is the bank
 * geometry's business (TaggedHistory). Entries are zero-initialized
 * (== default entry state).
 */
template <typename EntryT>
class TaggedTableArena
{
  public:
    TaggedTableArena() = default;

    /** Allocates @p entries zeroed entries (validate the geometry first:
     *  this only sizes). */
    explicit TaggedTableArena(std::uint32_t entries) : size_(entries)
    {
        void *block = ::operator new(std::size_t(entries) * sizeof(EntryT),
                                     std::align_val_t{kAlignment});
        std::memset(block, 0, std::size_t(entries) * sizeof(EntryT));
        data_.reset(static_cast<EntryT *>(block));
    }

    EntryT *data() { return data_.get(); }
    const EntryT *data() const { return data_.get(); }

    EntryT &operator[](std::uint32_t flat) { return data_.get()[flat]; }
    const EntryT &
    operator[](std::uint32_t flat) const
    {
        return data_.get()[flat];
    }

    /** @return Total entries across all tables. */
    std::uint32_t size() const { return size_; }

  private:
    static constexpr std::size_t kAlignment = 64;

    struct AlignedDelete
    {
        void
        operator()(EntryT *p) const noexcept
        {
            ::operator delete(p, std::align_val_t{kAlignment});
        }
    };

    std::unique_ptr<EntryT[], AlignedDelete> data_;
    std::uint32_t size_ = 0;
};

} // namespace mbp::pred

#endif // MBP_PREDICTORS_TAGE_ARENA_HPP
