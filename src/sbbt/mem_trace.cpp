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

std::uint64_t
countFirstSeen(const std::uint64_t *bits, std::size_t count)
{
    std::uint64_t sites = 0;
    const std::size_t full_words = count / 64;
    for (std::size_t w = 0; w < full_words; ++w)
        sites += static_cast<std::uint64_t>(std::popcount(bits[w]));
    const std::size_t rem = count % 64;
    if (rem != 0) {
        const std::uint64_t mask = (std::uint64_t{1} << rem) - 1;
        sites += static_cast<std::uint64_t>(
            std::popcount(bits[full_words] & mask));
    }
    return sites;
}

std::uint32_t
SiteDecoder::lookupSite(std::uint64_t ip)
{
    constexpr std::size_t kMaxSites =
        std::numeric_limits<std::uint32_t>::max();
    // The map stores id + 1, so its default-constructed 0 means "not seen
    // yet".
    std::uint32_t &slot = site_of_[ip];
    if (slot == 0) {
        if (site_ips_.size() == kMaxSites)
            return 0;
        site_ips_.push_back(ip);
        site_cond_occ_.push_back(0);
        slot = static_cast<std::uint32_t>(site_ips_.size());
    }
    return slot;
}

std::size_t
SiteDecoder::decode(std::span<const std::uint8_t> packets, const Rows &rows,
                    std::size_t at, std::string &error)
{
    // Locals, not reads through @p rows: a call the compiler cannot see
    // through (a memo miss) would otherwise force a reload of every
    // column pointer per branch.
    std::uint64_t *const ips = rows.ip;
    std::uint64_t *const targets = rows.target;
    std::uint64_t *const instr_nums = rows.instr;
    std::uint8_t *const meta = rows.meta;
    std::uint32_t *const site_index = rows.site;
    std::uint64_t *const first_seen = rows.first_seen;
    MemoEntry *const memo = memo_.data();
    const std::size_t count = packets.size() / kPacketSize;
    const std::uint8_t *packet = packets.data();
    std::uint64_t instr = instr_;
    std::size_t n = at;
    for (std::size_t k = 0; k < count; ++k, ++n, packet += kPacketSize) {
        const PacketData p = unpackPacket(packet);
        const Branch &b = p.branch;
        const std::uint64_t ip = b.ip();
        const char *fault = packetFault(b);
        if (fault != nullptr) [[unlikely]] {
            instr_ = instr;
            error = fault;
            return k;
        }
        if ((n & 63) == 0)
            first_seen[n / 64] = 0;
        MemoEntry &memoed = memo[memoIndex(ip)];
        std::uint32_t id1 = memoed.ip == ip ? memoed.id1 : 0;
        if (id1 == 0) [[unlikely]] {
            const std::size_t known = site_ips_.size();
            id1 = lookupSite(ip);
            if (id1 == 0) {
                instr_ = instr;
                error = "trace has 2^32-1 or more distinct branch sites; "
                        "site index would overflow";
                return k;
            }
            if (site_ips_.size() != known)
                first_seen[n / 64] |= std::uint64_t{1} << (n & 63);
            memoed = MemoEntry{ip, id1};
        }
        ips[n] = ip;
        targets[n] = b.target();
        instr += p.instr_gap + 1;
        instr_nums[n] = instr;
        meta[n] = static_cast<std::uint8_t>(b.opcode().bits() |
                                            (b.isTaken() ? 0x10 : 0));
        site_index[n] = id1 - 1;
        // Predictor-independent accounting, paid once at decode: the
        // per-site conditional-execution totals every whole-trace
        // collect_most_failed run needs (the kernels then only count
        // mispredictions in their hot loop).
        if (b.isConditional())
            ++site_cond_occ_[id1 - 1];
    }
    instr_ = instr;
    return count;
}

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
    SiteDecoder sites;
    try {
        capacity = static_cast<std::size_t>(std::min(
            trace->header_.branch_count, inputRowBound(path)));
        trace->resizeColumns(capacity);
        for (std::span<const std::uint8_t> packets = reader.nextPackets();
             !packets.empty(); packets = reader.nextPackets()) {
            const std::size_t count = packets.size() / kPacketSize;
            if (n + count > capacity) {
                capacity = std::max(n + count, capacity * 2);
                trace->resizeColumns(capacity);
            }
            const SiteDecoder::Rows rows{
                trace->ips_.data(),        trace->targets_.data(),
                trace->instr_nums_.data(), trace->meta_.data(),
                trace->site_index_.data(), trace->first_seen_.data()};
            std::string fault;
            const std::size_t decoded = sites.decode(packets, rows, n, fault);
            n += decoded;
            if (decoded != count) {
                if (error != nullptr)
                    *error = std::move(fault);
                return nullptr;
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
    trace->num_sites_ = sites.numSites();
    trace->site_ips_ = std::move(sites.site_ips_);
    trace->site_cond_occ_ = std::move(sites.site_cond_occ_);
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

BranchColumns
MemTrace::columns(std::size_t begin, std::size_t count) const
{
    begin = std::min(begin, size_);
    count = std::min(count, size_ - begin);
    return BranchColumns{ips_p_ + begin,         targets_p_ + begin,
                         instr_nums_p_ + begin,  meta_p_ + begin,
                         site_index_p_ + begin,  first_seen_p_ + begin / 64,
                         count};
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

TraceWindow::TraceWindow(const std::string &path,
                         const ReaderOptions &options, std::size_t capacity)
    : reader_(path, options), capacity_(std::max<std::size_t>(capacity, 1)),
      ips_(capacity_), targets_(capacity_), instr_nums_(capacity_),
      first_seen_((capacity_ + 63) / 64), meta_(capacity_),
      site_index_(capacity_)
{
}

BranchColumns
TraceWindow::next(std::uint64_t limit)
{
    const SiteDecoder::Rows rows{ips_.data(),        targets_.data(),
                                 instr_nums_.data(), meta_.data(),
                                 site_index_.data(), first_seen_.data()};
    std::size_t n = 0;
    while (n < capacity_ && error_.empty()) {
        const std::span<const std::uint8_t> packets =
            reader_.nextPackets(capacity_ - n);
        if (packets.empty())
            break;
        const std::size_t count = packets.size() / kPacketSize;
        const std::size_t decoded = sites_.decode(packets, rows, n, error_);
        n += decoded;
        if (decoded != count || instr_nums_[n - 1] > limit)
            break;
    }
    return BranchColumns{ips_.data(),        targets_.data(),
                         instr_nums_.data(), meta_.data(),
                         site_index_.data(), first_seen_.data(),
                         n};
}

} // namespace mbp::sbbt
