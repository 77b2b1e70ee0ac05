/**
 * @file
 * Streaming SBBT trace reader with block reads and optional read-ahead.
 */
#ifndef MBP_SBBT_READER_HPP
#define MBP_SBBT_READER_HPP

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mbp/compress/streams.hpp"
#include "mbp/sbbt/format.hpp"

namespace mbp::compress
{
class PrefetchSource;
} // namespace mbp::compress

namespace mbp::sbbt
{

/** Packets read per refill by default (64 KiB of trace per refill). */
inline constexpr std::size_t kDefaultBlockPackets = 4096;

/** Tuning knobs for SbbtReader's decode pipeline. */
struct ReaderOptions
{
    /**
     * Packets read per refill. The reader pulls
     * `block_packets * kPacketSize` bytes per InStream::read call, and
     * next() and nextPackets() hand them out of that buffer; 1 reproduces
     * the original packet-at-a-time pipeline exactly (one virtual read
     * per packet). Values are clamped to at least 1.
     */
    std::size_t block_packets = kDefaultBlockPackets;

    /**
     * Run decompression on a background thread (compress::PrefetchSource)
     * so decode overlaps with consumption. Only honored by the path-based
     * constructor; the InStream constructor reads synchronously, and
     * MemTrace::load decodes inline whatever this says.
     */
    bool prefetch = false;
};

/**
 * Reads branches from an SBBT trace, transparently decompressing.
 *
 * Usage:
 * @code
 *   SbbtReader reader("trace.sbbt.flz");
 *   if (!reader.ok()) fail(reader.error());
 *   PacketData p;
 *   while (reader.next(p)) { ... reader.instrNumber() ... }
 * @endcode
 *
 * Errors (truncated file, corrupt compressed stream, invalid packet) are
 * surfaced after every packet preceding the error has been delivered, in
 * stream order — identical to a packet-at-a-time reader. nextPackets()
 * leaves the invalid-packet check to its caller; the stream errors
 * (truncated packet, early end, corrupt stream) it reports the same way.
 */
class SbbtReader
{
  public:
    /** Opens @p path and parses the header. Check ok() afterwards. */
    explicit SbbtReader(const std::string &path,
                        const ReaderOptions &options = {});

    /** Reads from an arbitrary stream (tests, in-memory traces). */
    explicit SbbtReader(std::unique_ptr<compress::InStream> input,
                        const ReaderOptions &options = {});

    /** @return Whether the trace opened and the header parsed. */
    bool ok() const { return error_.empty(); }

    /** @return Description of the first error encountered ("" when none). */
    const std::string &error() const { return error_; }

    /** @return The trace header. Valid when ok(). */
    const Header &header() const { return header_; }

    /**
     * Advances to the next branch, decoding and checking its packet.
     *
     * @param out Receives the branch and its instruction gap.
     * @return False at end of trace or on error (check error()).
     */
    bool
    next(PacketData &out)
    {
        if (block_pos_ == block_fill_ && !refill())
            return false;
        out = unpackPacket(raw_.data() + block_pos_ * kPacketSize);
        if (const char *fault = packetFault(out.branch)) [[unlikely]] {
            fail(fault);
            return false;
        }
        ++block_pos_;
        ++branches_read_;
        instr_number_ += out.instr_gap + 1; // gap plus the branch itself
        return true;
    }

    /**
     * Hands out up to @p max_packets whole packets of the current block
     * as raw bytes, undecoded and unchecked: the bulk form of next() for
     * consumers that decode packets straight into their own storage
     * (sbbt::SiteDecoder), which must check each packet with
     * packetFault() and stop at the first fault. branchesRead() counts
     * every packet handed out; instrNumber() follows next() only, since
     * the gaps are still encoded.
     *
     * @return A multiple of kPacketSize bytes, valid until the next call
     *         of next() or nextPackets(); empty at end of trace or on a
     *         stream error (check error()).
     */
    std::span<const std::uint8_t>
    nextPackets(std::size_t max_packets =
                    std::numeric_limits<std::size_t>::max())
    {
        if (block_pos_ == block_fill_ && !refill())
            return {};
        const std::size_t count =
            std::min(max_packets, block_fill_ - block_pos_);
        const std::span<const std::uint8_t> packets(
            raw_.data() + block_pos_ * kPacketSize, count * kPacketSize);
        block_pos_ += count;
        branches_read_ += count;
        return packets;
    }

    /**
     * @return 1-based instruction number of the most recent branch (the
     *         count of instructions executed up to and including it).
     */
    std::uint64_t instrNumber() const { return instr_number_; }

    /** @return Branches delivered so far. */
    std::uint64_t branchesRead() const { return branches_read_; }

    /** @return Whether the whole trace was consumed without error. */
    bool
    exhausted() const
    {
        return done_ && error_.empty();
    }

    /**
     * @return Decompressed SBBT bytes consumed so far (header plus packet
     *         payload), regardless of the on-disk codec.
     */
    std::uint64_t decompressedBytes() const { return bytes_read_; }

    /**
     * @return Seconds the reader spent blocked on the prefetch thread;
     *         0 when prefetch is disabled.
     */
    double prefetchStallSeconds() const;

  private:
    void initBlocks(const ReaderOptions &options);
    void readHeader();
    bool refill();
    void fail(const char *fault); // an invalid packet ends the trace

    std::unique_ptr<compress::InStream> input_;
    compress::PrefetchSource *prefetch_ = nullptr; // owned via input_
    Header header_;
    std::string error_;
    std::string pending_error_; // surfaces once the block's packets drain
    std::vector<std::uint8_t> raw_; // the current block's packet bytes
    std::size_t block_pos_ = 0;     // packets of raw_ handed out
    std::size_t block_fill_ = 0;    // whole packets in raw_
    std::uint64_t instr_number_ = 0;
    std::uint64_t branches_read_ = 0;
    std::uint64_t bytes_read_ = 0;
    bool done_ = false;
};

} // namespace mbp::sbbt

#endif // MBP_SBBT_READER_HPP
