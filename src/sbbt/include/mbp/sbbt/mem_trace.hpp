/**
 * @file
 * Decoded traces as struct-of-arrays columns: the decode-once in-memory
 * arena, and the streaming window that decodes a trace block by block.
 *
 * For cheap predictors (Bimodal/GShare class) the simulator's running
 * time is dominated by trace decode — decompression plus packet decode —
 * not by prediction (paper Table III). A MemTrace pays that cost exactly
 * once: one streaming pass decodes the whole trace into a compact
 * struct-of-arrays arena that is immutable afterwards and can be shared
 * across any number of predictors and threads via
 * `std::shared_ptr<const MemTrace>`. A TraceWindow decodes the same
 * columns into one reused block instead, for runs that stream. Both go
 * through one decode loop (SiteDecoder), which reads the reader's raw
 * packets straight into the columns in one pass, and both hand the
 * simulation kernels (mbp/sim/kernels.hpp) the same thing: BranchColumns
 * blocks.
 *
 * @code
 *   std::string error;
 *   auto trace = sbbt::MemTrace::load("trace.sbbt.flz", {}, &error);
 *   if (!trace) fail(error);
 *   sbbt::BranchColumns all = trace->columns(0, trace->size());
 *   for (std::size_t i = 0; i < all.size; ++i) { ... all.ip[i] ... }
 * @endcode
 */
#ifndef MBP_SBBT_MEM_TRACE_HPP
#define MBP_SBBT_MEM_TRACE_HPP

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "mbp/sbbt/format.hpp"
#include "mbp/sbbt/reader.hpp"
#include "mbp/utils/flat_hash_map.hpp"

namespace mbp::sbbt
{

/**
 * Consecutive decoded branches as struct-of-arrays columns: the unit the
 * simulation kernels step. Row i of every column describes the same
 * branch; `size` rows are valid.
 */
struct BranchColumns
{
    const std::uint64_t *ip = nullptr;
    const std::uint64_t *target = nullptr;
    const std::uint64_t *instr = nullptr; //!< 1-based, cumulative
    const std::uint8_t *meta = nullptr;   //!< bits 0-3 opcode, bit 4 taken
    const std::uint32_t *site = nullptr;  //!< dense first-seen site ids
    /** Bit i set: row i is the first execution of its site. */
    const std::uint64_t *first_seen = nullptr;
    std::size_t size = 0;
};

/**
 * @return How many of the first @p count bits of the bitmap @p bits are
 *         set: the sites first seen among that many rows.
 */
std::uint64_t countFirstSeen(const std::uint64_t *bits, std::size_t count);

/**
 * The packet-to-column decode loop shared by MemTrace::load and
 * TraceWindow: raw SBBT packets from SbbtReader::nextPackets() go
 * straight into the columns, each checked against the validity rules on
 * the way. It numbers branch sites densely in first-seen order and
 * counts each site's conditional executions. The site table and the
 * instruction count persist across decode() calls, so a trace decoded
 * in pieces gets the same site ids, first-seen bits and totals as one
 * decoded whole.
 *
 * Site numbering goes through a direct-mapped memo of recent
 * `{ip, id + 1}` pairs in front of the site map: a loop's branches hit
 * it from L1 instead of probing the map per row. The memo is exact,
 * since a site's id never changes and a hit needs an equal ip.
 */
class SiteDecoder
{
  public:
    /** Writable columns, laid out like BranchColumns. */
    struct Rows
    {
        std::uint64_t *ip;
        std::uint64_t *target;
        std::uint64_t *instr;
        std::uint8_t *meta;
        std::uint32_t *site;
        std::uint64_t *first_seen;
    };

    /**
     * Decodes the raw packets @p packets (whole 16-byte packets, as
     * SbbtReader::nextPackets() hands them out) into rows [at, at + k)
     * of @p rows. Each 64-row word of the first-seen bitmap is cleared
     * when its first row is written.
     *
     * @return k, the rows decoded: every packet, or fewer when @p error
     *         is set — by the first packet that breaks the validity
     *         rules (packetFault()'s message), or by a trace that needs
     *         2^32-1 or more distinct sites (the site ids are 32-bit).
     *         The rows before it are complete.
     */
    std::size_t decode(std::span<const std::uint8_t> packets,
                       const Rows &rows, std::size_t at, std::string &error);

    /** @return Distinct sites seen so far. */
    std::uint32_t
    numSites() const
    {
        return static_cast<std::uint32_t>(site_ips_.size());
    }

    /** Site id -> address, for every site seen so far. */
    const std::vector<std::uint64_t> &siteIps() const { return site_ips_; }

    /** Site id -> conditional executions decoded so far. */
    const std::vector<std::uint64_t> &
    siteCondOccurrences() const
    {
        return site_cond_occ_;
    }

    /** Entries of the site memo (16 KiB of L1). */
    static constexpr std::size_t kMemoEntries = 1024;

    /** @return The memo entry @p ip maps to. */
    static constexpr std::size_t
    memoIndex(std::uint64_t ip)
    {
        return static_cast<std::size_t>(ip ^ (ip >> 10)) &
               (kMemoEntries - 1);
    }

  private:
    friend class MemTrace; // moves the site tables into the arena

    /** A recently numbered site; id1 == 0 marks an empty entry. */
    struct MemoEntry
    {
        std::uint64_t ip = 0;
        std::uint32_t id1 = 0; // site id + 1
    };

    /** Numbers the site at @p ip through the map (a memo miss), adding
     *  it when new. @return Its id + 1, or 0 when the ids are exhausted. */
    [[gnu::noinline]] std::uint32_t lookupSite(std::uint64_t ip);

    std::array<MemoEntry, kMemoEntries> memo_{};
    util::FlatHashMap<std::uint32_t> site_of_; // ip -> site id + 1
    std::vector<std::uint64_t> site_ips_;
    std::vector<std::uint64_t> site_cond_occ_;
    std::uint64_t instr_ = 0;
};

/**
 * An immutable, fully decoded SBBT trace resident in memory.
 *
 * Layout is struct-of-arrays: branch IPs, targets, a packed
 * opcode+outcome byte and the 1-based cumulative instruction number of
 * every branch. Instruction gaps are not stored — they are the
 * differences of consecutive instruction numbers — so the arena costs
 * kBytesPerBranch per branch regardless of the on-disk codec.
 *
 * The columns are exposed as raw pointers and owned in one of two ways:
 * load() decodes the trace into heap vectors, while mapFile() borrows
 * them zero-copy from a read-only mmap of an SBBT-A sidecar
 * (mbp/sbbt/arena_file.hpp) — same accessors, same kernels over either
 * backing.
 *
 * Thread safety: a loaded MemTrace is never mutated, so any number of
 * threads may read it concurrently.
 */
class MemTrace
{
  public:
    /**
     * Arena bytes consumed per branch (ip + target + instr number + meta
     * + dense site index). The site-index column is what lets the fused
     * simulation kernels (mbp/sim/kernels.hpp) replace every per-branch
     * hash lookup with an array access: the hashing is paid once here, at
     * decode, instead of once per (branch x predictor x run).
     */
    static constexpr std::uint64_t kBytesPerBranch = 8 + 8 + 8 + 1 + 4;

    /**
     * Decodes the whole trace at @p path in one streaming pass, decoding
     * the reader's raw packet blocks straight into the columns. The decode
     * runs inline on the calling thread: `options.prefetch` is ignored,
     * since a background decompression thread only adds a hand-off per
     * block here (and a ring buffer per concurrent load).
     *
     * The columns are sized up front from the header's branch count, but
     * never beyond what the input file can hold (its packet count for a
     * raw trace, the codecs' worst-case expansion of its size for a
     * compressed one), and grow geometrically past that — so a header
     * that overstates its count costs no allocation it cannot back.
     *
     * Errors follow SbbtReader semantics: an unreadable file, corrupt
     * compressed stream, invalid packet or early-ending trace fails the
     * load (nothing partial is returned). An allocation failure fails it
     * the same way, with a message instead of an exception.
     *
     * @param path    Trace file (possibly compressed).
     * @param options Decode pipeline knobs (block size).
     * @param error   Receives the failure description (optional).
     * @return The shared arena, or nullptr on error.
     */
    static std::shared_ptr<const MemTrace>
    load(const std::string &path, const ReaderOptions &options = {},
         std::string *error = nullptr);

    /** @return Estimated arena footprint for a trace with @p header. */
    static std::uint64_t
    estimateBytes(const Header &header)
    {
        return header.branch_count * kBytesPerBranch + sizeof(MemTrace);
    }

    /**
     * Estimated arena footprint of the trace at @p path, from its header
     * alone (no packet is decoded). Used by memory-budgeted callers to
     * decide streaming fallback *before* committing the memory.
     *
     * @return The estimate, or 0 when the header cannot be read — callers
     *         should then proceed to load()/stream and surface the real
     *         error.
     */
    static std::uint64_t estimateFileBytes(const std::string &path);

    /**
     * Maps the SBBT-A sidecar at @p path read-only and borrows its
     * columns with zero copies (mbp/sbbt/arena_file.hpp). The header is
     * validated (magic, version, checksums, column bounds) and the
     * payload checksum verified before any column is trusted; corrupt,
     * truncated or version-mismatched files fail the map — callers fall
     * back to load() on the source trace.
     *
     * @param path        SBBT-A file to map.
     * @param error       Receives the failure description (optional).
     * @param source_hash Receives the content hash of the source trace
     *                    recorded at write time (optional; 0 = unknown).
     * @return The shared arena, or nullptr on any validation failure.
     */
    static std::shared_ptr<const MemTrace>
    mapFile(const std::string &path, std::string *error = nullptr,
            std::uint64_t *source_hash = nullptr);

    /**
     * Serializes this arena as an SBBT-A file at @p path (overwriting),
     * 64-byte-aligned so mapFile() can borrow it. Works for decoded and
     * mapped arenas alike. The write is NOT atomic — materialize through
     * a temp name + rename (sbbt::ArenaStore does) when other processes
     * may be reading the path.
     *
     * @param path        Destination file.
     * @param source_hash Content hash of the source trace file, recorded
     *                    in the header so readers can pair sidecar and
     *                    source (0 = unknown).
     * @param error       Receives the failure description (optional).
     * @return Whether the file was completely written and closed.
     */
    bool writeArena(const std::string &path, std::uint64_t source_hash = 0,
                    std::string *error = nullptr) const;

    /** @return Whether the columns are borrowed from an mmap (mapFile())
     *          rather than owned by heap vectors (load()). */
    bool mapped() const { return mapping_ != nullptr; }

    /** @return The trace header. */
    const Header &header() const { return header_; }

    /** @return Branches in the arena. */
    std::size_t size() const { return size_; }

    /** @return Actual resident footprint of the arena in bytes. */
    std::uint64_t memoryBytes() const;

    /** @return Decompressed SBBT bytes consumed while decoding. */
    std::uint64_t decompressedBytes() const { return decompressed_bytes_; }

    /** @return Seconds the one decode pass took. */
    double loadSeconds() const { return load_seconds_; }

    // Per-branch row accessors (i < size()).
    std::uint64_t ip(std::size_t i) const { return ips_p_[i]; }
    std::uint64_t target(std::size_t i) const { return targets_p_[i]; }
    OpCode opcode(std::size_t i) const { return OpCode(meta_p_[i] & 0xf); }
    bool taken(std::size_t i) const { return (meta_p_[i] & 0x10) != 0; }
    /** 1-based instruction number of branch @p i (SbbtReader convention). */
    std::uint64_t instrNumber(std::size_t i) const
    {
        return instr_nums_p_[i];
    }

    /** @return Distinct branch sites (unique ips, any opcode) in the arena. */
    std::uint32_t numSites() const { return num_sites_; }

    /**
     * Dense index of branch @p i 's site, assigned in first-seen order
     * (0 .. numSites()-1). Lets per-site accounting use a plain array
     * instead of a hash map.
     */
    std::uint32_t siteIndex(std::size_t i) const { return site_index_p_[i]; }

    /** @return Instruction address of site @p s (s < numSites()). */
    std::uint64_t siteIp(std::uint32_t s) const { return site_ips_p_[s]; }

    /**
     * Conditional executions of site @p s over the whole trace —
     * precomputed at decode, so a full-trace collect_most_failed run
     * reads its per-site occurrence totals instead of counting them
     * branch by branch in the simulation loop.
     */
    std::uint64_t
    siteCondOccurrences(std::uint32_t s) const
    {
        return site_cond_occ_p_[s];
    }

    /**
     * Rows [begin, begin + count) as columns, clamped to size(). The
     * first-seen bitmap of a slice is addressed by whole 64-bit words,
     * so @p begin must be a multiple of 64.
     */
    BranchColumns columns(std::size_t begin, std::size_t count) const;

    // Raw column pointers, for readers that walk the columns whole.
    const std::uint64_t *ipData() const { return ips_p_; }
    const std::uint64_t *targetData() const { return targets_p_; }
    const std::uint64_t *instrNumData() const { return instr_nums_p_; }
    const std::uint8_t *metaData() const { return meta_p_; }
    const std::uint32_t *siteIndexData() const { return site_index_p_; }
    const std::uint64_t *siteIpData() const { return site_ips_p_; }
    const std::uint64_t *siteCondOccData() const
    {
        return site_cond_occ_p_;
    }

  private:
    /** std::allocator that default-initializes, so resizing a column
     *  leaves the new slots unwritten for the decode to fill, instead of
     *  zeroing them first. */
    template <typename T>
    struct UninitAllocator : std::allocator<T>
    {
        template <typename U>
        struct rebind
        {
            using other = UninitAllocator<U>;
        };
        UninitAllocator() = default;
        template <typename U>
        UninitAllocator(const UninitAllocator<U> &) noexcept
        {}
        template <typename U>
        void
        construct(U *p)
        {
            ::new (static_cast<void *>(p)) U;
        }
        template <typename U, typename... Args>
        void
        construct(U *p, Args &&...args)
        {
            ::new (static_cast<void *>(p)) U(std::forward<Args>(args)...);
        }
    };
    template <typename T>
    using Column = std::vector<T, UninitAllocator<T>>;

    /** Read-only mmap of an SBBT-A file, unmapped on destruction; keeps
     *  the borrowed columns of a mapped arena alive. */
    class ArenaMapping;

    MemTrace() = default;

    /** Sizes the per-branch columns and the first-seen bitmap for
     *  @p branches rows, keeping the rows already written. */
    void resizeColumns(std::size_t branches);

    /** Points the column views at the owned vectors (decode path). */
    void adoptOwnedColumns();

    Header header_;

    // Column views — the only pointers the accessors and columns()
    // read. They alias either the owned vectors below (load())
    // or an ArenaMapping (mapFile()).
    const std::uint64_t *ips_p_ = nullptr;
    const std::uint64_t *targets_p_ = nullptr;
    const std::uint64_t *instr_nums_p_ = nullptr; // cumulative, 1-based
    const std::uint8_t *meta_p_ = nullptr; // bits 0-3 opcode, bit 4 outcome
    const std::uint32_t *site_index_p_ = nullptr; // dense first-seen ids
    const std::uint64_t *first_seen_p_ = nullptr; // new-site bitmap
    const std::uint64_t *site_ips_p_ = nullptr;   // site id -> address
    const std::uint64_t *site_cond_occ_p_ = nullptr; // cond. counts
    std::size_t size_ = 0;
    std::uint32_t num_sites_ = 0;

    // Decode-path ownership (empty for a mapped arena).
    Column<std::uint64_t> ips_;
    Column<std::uint64_t> targets_;
    Column<std::uint64_t> instr_nums_;
    Column<std::uint8_t> meta_;
    Column<std::uint32_t> site_index_;
    Column<std::uint64_t> first_seen_;
    std::vector<std::uint64_t> site_ips_;
    std::vector<std::uint64_t> site_cond_occ_;

    // Map-path ownership (null for a decoded arena).
    std::shared_ptr<const ArenaMapping> mapping_;
    std::uint64_t mapped_bytes_ = 0; //!< file size backing the mapping

    std::uint64_t decompressed_bytes_ = 0;
    double load_seconds_ = 0.0;
};

/**
 * Streams a trace as a sequence of decoded column blocks in one reused
 * window, for runs that do not decode the whole trace up front. Every
 * block goes through the SiteDecoder that MemTrace::load uses, so site
 * ids, first-seen bits and per-site conditional totals match the arena
 * of the same trace. Errors follow SbbtReader: every branch before the
 * error is handed out first.
 */
class TraceWindow
{
  public:
    /** Opens @p path; check reader().ok() afterwards. */
    TraceWindow(const std::string &path, const ReaderOptions &options,
                std::size_t capacity);

    /**
     * Decodes the next block of up to capacity branches. Filling stops
     * after the first branch whose instruction number exceeds @p limit,
     * so a run that ends there reads no further into the trace.
     *
     * @return The block, valid until the next call; empty at end of
     *         trace or on error (check error()). A block cut short by an
     *         invalid packet holds the rows before it, and the next call
     *         returns empty.
     */
    BranchColumns next(std::uint64_t limit);

    /** @return The first error: the reader's, an invalid packet's, or a
     *          site-id overflow. */
    const std::string &
    error() const
    {
        return error_.empty() ? reader_.error() : error_;
    }

    /** @return The underlying reader (header, byte and stall counters). */
    const SbbtReader &reader() const { return reader_; }

    /** @return The site table of every branch decoded so far. */
    const SiteDecoder &sites() const { return sites_; }

  private:
    SbbtReader reader_;
    SiteDecoder sites_;
    std::string error_;
    std::size_t capacity_;
    std::vector<std::uint64_t> ips_, targets_, instr_nums_, first_seen_;
    std::vector<std::uint8_t> meta_;
    std::vector<std::uint32_t> site_index_;
};

} // namespace mbp::sbbt

#endif // MBP_SBBT_MEM_TRACE_HPP
