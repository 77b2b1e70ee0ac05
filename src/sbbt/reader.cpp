/**
 * @file
 * SbbtReader implementation.
 *
 * The reader reads the trace in blocks: one InStream::read pulls
 * block_packets * kPacketSize bytes into raw_, and next() decodes its
 * packets one by one while nextPackets() hands them out undecoded. A
 * ragged tail found while refilling is parked in pending_error_ so that
 * every whole packet preceding it is still delivered first, matching the
 * packet-at-a-time semantics bit for bit.
 */
#include "mbp/sbbt/reader.hpp"

#include "mbp/compress/prefetch.hpp"

namespace mbp::sbbt
{

SbbtReader::SbbtReader(const std::string &path, const ReaderOptions &options)
{
    auto source = compress::openSource(path);
    if (!source) {
        error_ = "cannot open trace file: " + path;
        done_ = true;
        return;
    }
    if (options.prefetch) {
        auto prefetch =
            std::make_unique<compress::PrefetchSource>(std::move(source));
        prefetch_ = prefetch.get();
        source = std::move(prefetch);
    }
    input_ = std::make_unique<compress::InStream>(std::move(source));
    initBlocks(options);
    readHeader();
}

SbbtReader::SbbtReader(std::unique_ptr<compress::InStream> input,
                       const ReaderOptions &options)
    : input_(std::move(input))
{
    if (!input_) {
        error_ = "null input stream";
        done_ = true;
        return;
    }
    initBlocks(options);
    readHeader();
}

void
SbbtReader::initBlocks(const ReaderOptions &options)
{
    std::size_t block_packets = std::max<std::size_t>(options.block_packets, 1);
    raw_.resize(block_packets * kPacketSize);
}

double
SbbtReader::prefetchStallSeconds() const
{
    return prefetch_ ? prefetch_->stallSeconds() : 0.0;
}

void
SbbtReader::readHeader()
{
    std::uint8_t bytes[kHeaderSize];
    if (!input_->readExact(bytes, kHeaderSize)) {
        error_ = "truncated SBBT header";
        done_ = true;
        return;
    }
    bytes_read_ += kHeaderSize;
    if (!decodeHeader(bytes, header_, &error_))
        done_ = true;
}

bool
SbbtReader::refill()
{
    if (done_)
        return false;
    if (!pending_error_.empty()) {
        error_ = std::move(pending_error_);
        pending_error_.clear();
        done_ = true;
        return false;
    }
    std::size_t n = input_->read(raw_.data(), raw_.size());
    bytes_read_ += n;
    if (n == 0) {
        done_ = true;
        if (input_->failed())
            error_ = "corrupt compressed stream";
        else if (branches_read_ != header_.branch_count)
            error_ = "trace ended early: header promises " +
                     std::to_string(header_.branch_count) + " branches, got " +
                     std::to_string(branches_read_);
        return false;
    }
    // A short read means the stream ended: InStream::read only returns less
    // than requested at end of input. A ragged tail is a truncated packet.
    if (n % kPacketSize != 0)
        pending_error_ = "truncated SBBT packet";
    block_pos_ = 0;
    block_fill_ = n / kPacketSize;
    if (block_fill_ == 0) {
        error_ = std::move(pending_error_);
        pending_error_.clear();
        done_ = true;
        return false;
    }
    return true;
}

void
SbbtReader::fail(const char *fault)
{
    error_ = fault;
    pending_error_.clear();
    block_pos_ = block_fill_;
    done_ = true;
}

} // namespace mbp::sbbt
