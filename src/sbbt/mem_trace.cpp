#include "mbp/sbbt/mem_trace.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <filesystem>
#include <limits>
#include <new>
#include <span>
#include <utility>

#include "mbp/compress/streams.hpp"
#include "mbp/utils/flat_hash_map.hpp"

namespace mbp::sbbt
{

namespace
{

/**
 * Worst-case expansion of the supported codecs: deflate tops out near
 * 1032:1, FLZ's LZ4-style run lengths near 255:1.
 */
constexpr std::uint64_t kMaxCodecExpansion = 1032;

/** Rows reserved when the input's size is unknown (a pipe, say). */
constexpr std::uint64_t kUnknownSizeRows = std::uint64_t(1) << 16;

/**
 * Most branches the file at @p path can hold: its whole packets for a
 * raw trace, its size times the worst-case codec expansion for a
 * compressed one. Bounds the up-front column sizing, so a header that
 * claims more branches than the file has cannot size an allocation.
 */
std::uint64_t
inputRowBound(const std::string &path)
{
    std::error_code ec;
    const std::uintmax_t bytes = std::filesystem::file_size(path, ec);
    if (ec)
        return kUnknownSizeRows;
    if (compress::detectCodec(path) == compress::Codec::kRaw)
        return bytes > kHeaderSize ? (bytes - kHeaderSize) / kPacketSize
                                   : 0;
    const std::uint64_t limit =
        std::numeric_limits<std::uint64_t>::max() / kMaxCodecExpansion;
    return std::min<std::uint64_t>(bytes, limit) * kMaxCodecExpansion /
           kPacketSize;
}

} // namespace

std::shared_ptr<const MemTrace>
MemTrace::load(const std::string &path, const ReaderOptions &options,
               std::string *error)
{
    const auto start = std::chrono::steady_clock::now();
    ReaderOptions inline_options = options;
    inline_options.prefetch = false;
    SbbtReader reader(path, inline_options);
    if (!reader.ok()) {
        if (error != nullptr)
            *error = reader.error();
        return nullptr;
    }

    // make_shared is unavailable with the private constructor; the arena
    // is shared read-only so the separate control block costs nothing hot.
    std::shared_ptr<MemTrace> trace(new MemTrace());
    trace->header_ = reader.header();
    std::size_t capacity = 0;
    std::size_t n = 0;
    try {
        capacity = static_cast<std::size_t>(std::min(
            trace->header_.branch_count, inputRowBound(path)));
        trace->resizeColumns(capacity);

        // Site ids are assigned in first-seen order; the map stores id+1
        // so FlatHashMap's default-constructed 0 means "not seen yet".
        util::FlatHashMap<std::uint32_t> site_of;
        constexpr std::uint32_t kMaxSites =
            std::numeric_limits<std::uint32_t>::max();
        std::uint64_t instr = 0;
        for (std::span<const PacketData> block = reader.nextBlock();
             !block.empty(); block = reader.nextBlock()) {
            if (n + block.size() > capacity) {
                capacity = std::max(n + block.size(), capacity * 2);
                trace->resizeColumns(capacity);
            }
            std::uint64_t *const ips = trace->ips_.data();
            std::uint64_t *const targets = trace->targets_.data();
            std::uint64_t *const instr_nums = trace->instr_nums_.data();
            std::uint8_t *const meta = trace->meta_.data();
            std::uint32_t *const site_index = trace->site_index_.data();
            std::uint64_t *const first_seen = trace->first_seen_.data();
            for (const PacketData &p : block) {
                const Branch &b = p.branch;
                ips[n] = b.ip();
                targets[n] = b.target();
                instr += p.instr_gap + 1;
                instr_nums[n] = instr;
                meta[n] = static_cast<std::uint8_t>(
                    b.opcode().bits() | (b.isTaken() ? 0x10 : 0));
                if ((n & 63) == 0)
                    first_seen[n / 64] = 0;
                std::uint32_t &slot = site_of[b.ip()];
                if (slot == 0) {
                    if (trace->num_sites_ == kMaxSites) {
                        if (error != nullptr)
                            *error = "trace has 2^32-1 or more distinct "
                                     "branch sites; site index would "
                                     "overflow";
                        return nullptr;
                    }
                    slot = ++trace->num_sites_;
                    first_seen[n / 64] |= std::uint64_t{1} << (n & 63);
                    trace->site_ips_.push_back(b.ip());
                    trace->site_cond_occ_.push_back(0);
                }
                site_index[n] = slot - 1;
                // Predictor-independent accounting, paid once at decode:
                // the per-site conditional-execution totals every
                // full-trace collect_most_failed run needs (the fused
                // kernels then only count mispredictions in their hot
                // loop).
                if (b.isConditional())
                    ++trace->site_cond_occ_[slot - 1];
                ++n;
            }
        }
        if (reader.error().empty() && n != capacity) {
            trace->resizeColumns(n);
            trace->ips_.shrink_to_fit();
            trace->targets_.shrink_to_fit();
            trace->instr_nums_.shrink_to_fit();
            trace->meta_.shrink_to_fit();
            trace->site_index_.shrink_to_fit();
            trace->first_seen_.shrink_to_fit();
        }
    } catch (const std::bad_alloc &) {
        if (error != nullptr)
            *error = "cannot allocate the arena: out of memory after " +
                     std::to_string(n) + " of " +
                     std::to_string(trace->header_.branch_count) +
                     " branches";
        return nullptr;
    }
    if (!reader.error().empty()) {
        if (error != nullptr)
            *error = reader.error();
        return nullptr;
    }
    trace->adoptOwnedColumns();
    trace->decompressed_bytes_ = reader.decompressedBytes();
    trace->load_seconds_ =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    return trace;
}

void
MemTrace::resizeColumns(std::size_t branches)
{
    ips_.resize(branches);
    targets_.resize(branches);
    instr_nums_.resize(branches);
    meta_.resize(branches);
    site_index_.resize(branches);
    first_seen_.resize((branches + 63) / 64);
}

void
MemTrace::adoptOwnedColumns()
{
    ips_p_ = ips_.data();
    targets_p_ = targets_.data();
    instr_nums_p_ = instr_nums_.data();
    meta_p_ = meta_.data();
    site_index_p_ = site_index_.data();
    first_seen_p_ = first_seen_.data();
    site_ips_p_ = site_ips_.data();
    site_cond_occ_p_ = site_cond_occ_.data();
    size_ = ips_.size();
}

std::uint64_t
MemTrace::staticSitesInPrefix(std::size_t count) const
{
    count = std::min(count, size_);
    std::uint64_t sites = 0;
    const std::size_t full_words = count / 64;
    for (std::size_t w = 0; w < full_words; ++w)
        sites +=
            static_cast<std::uint64_t>(std::popcount(first_seen_p_[w]));
    const std::size_t rem = count % 64;
    if (rem != 0) {
        const std::uint64_t mask = (std::uint64_t{1} << rem) - 1;
        sites += static_cast<std::uint64_t>(
            std::popcount(first_seen_p_[full_words] & mask));
    }
    return sites;
}

std::uint64_t
MemTrace::estimateFileBytes(const std::string &path)
{
    // The SbbtReader constructor parses only the header, so this peek
    // costs one small read even on multi-gigabyte compressed traces.
    SbbtReader reader(path, ReaderOptions{.block_packets = 1,
                                         .prefetch = false});
    if (!reader.ok())
        return 0;
    return estimateBytes(reader.header());
}

std::uint64_t
MemTrace::memoryBytes() const
{
    // A mapped arena's footprint is the mapped file: at most that many
    // bytes of page cache, shared with every other process mapping it.
    if (mapping_ != nullptr)
        return sizeof(MemTrace) + mapped_bytes_;
    return sizeof(MemTrace) +
           ips_.capacity() * sizeof(std::uint64_t) +
           targets_.capacity() * sizeof(std::uint64_t) +
           instr_nums_.capacity() * sizeof(std::uint64_t) +
           meta_.capacity() * sizeof(std::uint8_t) +
           site_index_.capacity() * sizeof(std::uint32_t) +
           first_seen_.capacity() * sizeof(std::uint64_t) +
           site_ips_.capacity() * sizeof(std::uint64_t) +
           site_cond_occ_.capacity() * sizeof(std::uint64_t);
}

} // namespace mbp::sbbt
