/**
 * @file
 * Stream implementations: plain files, gzip (zlib), framed FLZ, and the
 * buffered InStream/OutStream wrappers plus open factories.
 */
#include "mbp/compress/streams.hpp"

#include <zlib.h>

#include <cstdio>

#include "mbp/compress/flz.hpp"

namespace mbp::compress
{

namespace
{

/** RAII stdio file source. */
class FileSource : public ByteSource
{
  public:
    explicit FileSource(std::FILE *f) : file_(f) {}
    ~FileSource() override
    {
        if (file_)
            std::fclose(file_);
    }

    std::size_t
    read(void *dst, std::size_t size) override
    {
        return std::fread(dst, 1, size, file_);
    }

  private:
    std::FILE *file_;
};

/** RAII stdio file sink. */
class FileSink : public ByteSink
{
  public:
    explicit FileSink(std::FILE *f) : file_(f) {}
    ~FileSink() override
    {
        if (file_)
            std::fclose(file_);
    }

    bool
    write(const void *src, std::size_t size) override
    {
        return std::fwrite(src, 1, size, file_) == size;
    }

    bool
    finish() override
    {
        bool ok = std::fflush(file_) == 0;
        ok = std::fclose(file_) == 0 && ok;
        file_ = nullptr;
        return ok;
    }

  private:
    std::FILE *file_;
};

/** Streaming gzip decoder over an inner source. */
class GzipSource : public ByteSource
{
  public:
    explicit GzipSource(std::unique_ptr<ByteSource> inner)
        : inner_(std::move(inner)), in_buf_(1 << 16)
    {
        strm_.zalloc = Z_NULL;
        strm_.zfree = Z_NULL;
        strm_.opaque = Z_NULL;
        strm_.next_in = Z_NULL;
        strm_.avail_in = 0;
        // 15 window bits + 16 selects the gzip wrapper.
        failed_ = inflateInit2(&strm_, 15 + 16) != Z_OK;
    }

    ~GzipSource() override { inflateEnd(&strm_); }

    std::size_t
    read(void *dst, std::size_t size) override
    {
        if (failed_ || done_)
            return 0;
        strm_.next_out = static_cast<Bytef *>(dst);
        strm_.avail_out = static_cast<uInt>(size);
        while (strm_.avail_out > 0) {
            if (strm_.avail_in == 0) {
                std::size_t n = inner_->read(in_buf_.data(), in_buf_.size());
                if (n == 0) {
                    // Input ended before Z_STREAM_END: the stream is
                    // truncated even if this call already produced bytes.
                    failed_ = true;
                    break;
                }
                strm_.next_in = in_buf_.data();
                strm_.avail_in = static_cast<uInt>(n);
            }
            int rc = inflate(&strm_, Z_NO_FLUSH);
            if (rc == Z_STREAM_END) {
                // Support concatenated gzip members like gunzip does.
                if (strm_.avail_in == 0) {
                    std::size_t n =
                        inner_->read(in_buf_.data(), in_buf_.size());
                    if (n == 0) {
                        done_ = true;
                        break;
                    }
                    strm_.next_in = in_buf_.data();
                    strm_.avail_in = static_cast<uInt>(n);
                }
                if (inflateReset(&strm_) != Z_OK) {
                    failed_ = true;
                    break;
                }
            } else if (rc != Z_OK) {
                failed_ = true;
                break;
            }
        }
        return size - strm_.avail_out;
    }

    bool failed() const override { return failed_; }

  private:
    std::unique_ptr<ByteSource> inner_;
    std::vector<std::uint8_t> in_buf_;
    z_stream strm_{};
    bool failed_ = false;
    bool done_ = false;
};

/** Streaming gzip encoder over an inner sink. */
class GzipSink : public ByteSink
{
  public:
    GzipSink(std::unique_ptr<ByteSink> inner, int level)
        : inner_(std::move(inner)), out_buf_(1 << 16)
    {
        strm_.zalloc = Z_NULL;
        strm_.zfree = Z_NULL;
        strm_.opaque = Z_NULL;
        if (level < 0)
            level = 6;
        if (level > 9)
            level = 9;
        failed_ = deflateInit2(&strm_, level, Z_DEFLATED, 15 + 16, 8,
                               Z_DEFAULT_STRATEGY) != Z_OK;
    }

    ~GzipSink() override
    {
        if (!finished_)
            finish();
        deflateEnd(&strm_);
    }

    bool
    write(const void *src, std::size_t size) override
    {
        if (failed_)
            return false;
        strm_.next_in =
            const_cast<Bytef *>(static_cast<const Bytef *>(src));
        strm_.avail_in = static_cast<uInt>(size);
        while (strm_.avail_in > 0) {
            strm_.next_out = out_buf_.data();
            strm_.avail_out = static_cast<uInt>(out_buf_.size());
            if (deflate(&strm_, Z_NO_FLUSH) == Z_STREAM_ERROR) {
                failed_ = true;
                return false;
            }
            std::size_t produced = out_buf_.size() - strm_.avail_out;
            if (produced && !inner_->write(out_buf_.data(), produced)) {
                failed_ = true;
                return false;
            }
        }
        return true;
    }

    bool
    finish() override
    {
        if (finished_)
            return !failed_;
        finished_ = true;
        if (failed_)
            return false;
        int rc;
        do {
            strm_.next_out = out_buf_.data();
            strm_.avail_out = static_cast<uInt>(out_buf_.size());
            rc = deflate(&strm_, Z_FINISH);
            if (rc == Z_STREAM_ERROR) {
                failed_ = true;
                return false;
            }
            std::size_t produced = out_buf_.size() - strm_.avail_out;
            if (produced && !inner_->write(out_buf_.data(), produced)) {
                failed_ = true;
                return false;
            }
        } while (rc != Z_STREAM_END);
        return inner_->finish();
    }

  private:
    std::unique_ptr<ByteSink> inner_;
    std::vector<std::uint8_t> out_buf_;
    z_stream strm_{};
    bool failed_ = false;
    bool finished_ = false;
};

/**
 * Framed FLZ decoder over an inner source. Each block is checked whole
 * before any of its bytes leave (a corrupt block yields none of them),
 * then decoded only as far as read() asks, at least kMinDecode bytes at a
 * time, into one block buffer allocated at the first block and never
 * zero-filled.
 */
class FlzSource : public ByteSource
{
  public:
    explicit FlzSource(std::unique_ptr<ByteSource> inner)
        : inner_(std::move(inner))
    {
        char magic[4];
        if (!readAll(magic, 4)) {
            failed_ = true;
        } else if (std::memcmp(magic, kFlz2Magic, 4) == 0) {
            wide_ = true;
        } else if (std::memcmp(magic, kFlzMagic, 4) != 0) {
            failed_ = true;
        }
    }

    std::size_t
    read(void *dst, std::size_t size) override
    {
        auto *out = static_cast<std::uint8_t *>(dst);
        std::size_t total = 0;
        while (total < size && !failed_ && !done_) {
            if (pos_ == raw_size_ && !nextBlock())
                break;
            if (pos_ == cursor_.out && !decodeUpTo(pos_ + size - total))
                break;
            std::size_t n = std::min(size - total, cursor_.out - pos_);
            std::memcpy(out + total, block_.get() + pos_, n);
            pos_ += n;
            total += n;
        }
        return total;
    }

    bool failed() const override { return failed_; }

  private:
    /** Fewest bytes one decode step produces (unless the block ends). */
    static constexpr std::size_t kMinDecode = 64 * 1024;

    bool
    readAll(void *dst, std::size_t size)
    {
        auto *p = static_cast<std::uint8_t *>(dst);
        std::size_t got = 0;
        while (got < size) {
            std::size_t n = inner_->read(p + got, size - got);
            if (n == 0)
                return false;
            got += n;
        }
        return true;
    }

    static std::uint32_t
    decode32(const std::uint8_t *p)
    {
        return std::uint32_t(p[0]) | (std::uint32_t(p[1]) << 8) |
               (std::uint32_t(p[2]) << 16) | (std::uint32_t(p[3]) << 24);
    }

    bool
    nextBlock()
    {
        std::uint8_t hdr[8];
        if (!readAll(hdr, 8)) {
            failed_ = true; // missing end marker
            return false;
        }
        std::uint32_t raw_size = decode32(hdr);
        std::uint32_t comp_size = decode32(hdr + 4);
        if (raw_size == 0) {
            done_ = true;
            return false;
        }
        // Corrupt headers must not drive allocations: no legal frame has
        // blocks beyond the v2 block size, nor a compressed payload larger
        // than the worst-case encoding of its declared raw size.
        if (raw_size > kFlz2BlockSize ||
            comp_size > flzCompressBound(raw_size)) {
            failed_ = true;
            return false;
        }
        if (!block_)
            block_ = std::make_unique_for_overwrite<std::uint8_t[]>(
                kFlz2BlockSize);
        raw_size_ = raw_size;
        pos_ = 0;
        cursor_ = {};
        if (comp_size == 0) {
            // Stored block.
            if (!readAll(block_.get(), raw_size)) {
                failed_ = true;
                return false;
            }
            cursor_.out = raw_size;
            return true;
        }
        comp_.resize(comp_size);
        if (!readAll(comp_.data(), comp_size) ||
            !flzCheckBlock(comp_.data(), comp_size, raw_size, wide_)) {
            failed_ = true;
            return false;
        }
        return true;
    }

    /** Decodes the checked block on to at least @p want bytes out. */
    bool
    decodeUpTo(std::size_t want)
    {
        const std::size_t stop =
            std::min(raw_size_, std::max(want, pos_ + kMinDecode));
        if (!flzDecodeRange(comp_.data(), comp_.size(), block_.get(),
                            raw_size_, cursor_, stop, wide_)) {
            failed_ = true;
            return false;
        }
        return true;
    }

    std::unique_ptr<ByteSource> inner_;
    std::unique_ptr<std::uint8_t[]> block_; // kFlz2BlockSize bytes
    std::vector<std::uint8_t> comp_;
    std::size_t raw_size_ = 0;
    std::size_t pos_ = 0;
    FlzCursor cursor_; // how far the current block is decoded
    bool wide_ = false;
    bool failed_ = false;
    bool done_ = false;
};

/** Framed FLZ encoder over an inner sink. */
class FlzSink : public ByteSink
{
  public:
    FlzSink(std::unique_ptr<ByteSink> inner, int level, bool wide)
        : inner_(std::move(inner)), effort_(level < 0 ? 4 : level),
          wide_(wide),
          block_size_(wide ? kFlz2BlockSize : kFlzBlockSize)
    {
        pending_.reserve(block_size_);
        if (!inner_->write(wide_ ? kFlz2Magic : kFlzMagic, 4))
            failed_ = true;
    }

    ~FlzSink() override
    {
        if (!finished_)
            finish();
    }

    bool
    write(const void *src, std::size_t size) override
    {
        const auto *p = static_cast<const std::uint8_t *>(src);
        while (size > 0 && !failed_) {
            std::size_t room = block_size_ - pending_.size();
            std::size_t n = std::min(room, size);
            pending_.insert(pending_.end(), p, p + n);
            p += n;
            size -= n;
            if (pending_.size() == block_size_)
                flushBlock();
        }
        return !failed_;
    }

    bool
    finish() override
    {
        if (finished_)
            return !failed_;
        finished_ = true;
        if (!pending_.empty())
            flushBlock();
        std::uint8_t end_marker[8] = {0};
        if (!failed_ && !inner_->write(end_marker, 8))
            failed_ = true;
        if (!inner_->finish())
            failed_ = true;
        return !failed_;
    }

  private:
    static void
    encode32(std::uint8_t *p, std::uint32_t v)
    {
        p[0] = std::uint8_t(v);
        p[1] = std::uint8_t(v >> 8);
        p[2] = std::uint8_t(v >> 16);
        p[3] = std::uint8_t(v >> 24);
    }

    void
    flushBlock()
    {
        comp_.resize(flzCompressBound(pending_.size()));
        std::size_t n = flzCompressBlock(pending_.data(), pending_.size(),
                                         comp_.data(), effort_, wide_);
        std::uint8_t hdr[8];
        encode32(hdr, static_cast<std::uint32_t>(pending_.size()));
        if (n >= pending_.size()) {
            // Incompressible: store raw.
            encode32(hdr + 4, 0);
            if (!inner_->write(hdr, 8) ||
                !inner_->write(pending_.data(), pending_.size()))
                failed_ = true;
        } else {
            encode32(hdr + 4, static_cast<std::uint32_t>(n));
            if (!inner_->write(hdr, 8) || !inner_->write(comp_.data(), n))
                failed_ = true;
        }
        pending_.clear();
    }

    std::unique_ptr<ByteSink> inner_;
    std::vector<std::uint8_t> pending_;
    std::vector<std::uint8_t> comp_;
    int effort_;
    bool wide_;
    std::size_t block_size_;
    bool failed_ = false;
    bool finished_ = false;
};

bool
endsWith(std::string_view s, std::string_view suffix)
{
    return s.size() >= suffix.size() &&
           s.substr(s.size() - suffix.size()) == suffix;
}

} // namespace

Codec
codecFromPath(std::string_view path)
{
    if (endsWith(path, ".gz"))
        return Codec::kGzip;
    if (endsWith(path, ".flz") || endsWith(path, ".zst"))
        return Codec::kFlz;
    return Codec::kRaw;
}

const char *
codecName(Codec codec)
{
    switch (codec) {
      case Codec::kRaw: return "raw";
      case Codec::kGzip: return "gzip";
      case Codec::kFlz: return "flz";
    }
    return "?";
}

std::unique_ptr<ByteSource>
makeGzipSource(std::unique_ptr<ByteSource> inner)
{
    return std::make_unique<GzipSource>(std::move(inner));
}

std::unique_ptr<ByteSink>
makeGzipSink(std::unique_ptr<ByteSink> inner, int level)
{
    return std::make_unique<GzipSink>(std::move(inner), level);
}

std::unique_ptr<ByteSource>
makeFlzSource(std::unique_ptr<ByteSource> inner)
{
    return std::make_unique<FlzSource>(std::move(inner));
}

std::unique_ptr<ByteSink>
makeFlzSink(std::unique_ptr<ByteSink> inner, int level, bool wide)
{
    return std::make_unique<FlzSink>(std::move(inner), level, wide);
}

namespace
{

/** Codec of the open file @p f at @p path: by extension, else by magic. */
Codec
sniffCodec(const std::string &path, std::FILE *f)
{
    Codec codec = codecFromPath(path);
    if (codec == Codec::kRaw) {
        // Unknown extension: sniff the first bytes for a known magic.
        unsigned char magic[4] = {0};
        std::size_t n = std::fread(magic, 1, 4, f);
        std::rewind(f);
        if (n >= 2 && magic[0] == 0x1f && magic[1] == 0x8b)
            codec = Codec::kGzip;
        else if (n == 4 && (std::memcmp(magic, kFlzMagic, 4) == 0 ||
                            std::memcmp(magic, kFlz2Magic, 4) == 0))
            codec = Codec::kFlz;
    }
    return codec;
}

} // namespace

Codec
detectCodec(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return Codec::kRaw;
    const Codec codec = sniffCodec(path, f);
    std::fclose(f);
    return codec;
}

std::unique_ptr<ByteSource>
openSource(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return nullptr;
    const Codec codec = sniffCodec(path, f);
    auto file = std::make_unique<FileSource>(f);
    switch (codec) {
      case Codec::kGzip: return makeGzipSource(std::move(file));
      case Codec::kFlz: return makeFlzSource(std::move(file));
      case Codec::kRaw: break;
    }
    return file;
}

std::unique_ptr<ByteSink>
openSink(const std::string &path, Codec codec, int level)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return nullptr;
    auto file = std::make_unique<FileSink>(f);
    switch (codec) {
      case Codec::kGzip: return makeGzipSink(std::move(file), level);
      case Codec::kFlz: return makeFlzSink(std::move(file), level);
      case Codec::kRaw: break;
    }
    return file;
}

InStream::InStream(std::unique_ptr<ByteSource> source,
                   std::size_t buffer_size)
    : source_(std::move(source)), buffer_(buffer_size)
{}

bool
InStream::fill()
{
    if (eof_)
        return false;
    pos_ = 0;
    limit_ = source_->read(buffer_.data(), buffer_.size());
    if (limit_ == 0) {
        eof_ = true;
        return false;
    }
    return true;
}

std::size_t
InStream::read(void *dst, std::size_t size)
{
    auto *out = static_cast<std::uint8_t *>(dst);
    std::size_t total = 0;
    while (total < size) {
        if (pos_ == limit_ && !fill())
            break;
        std::size_t n = std::min(size - total, limit_ - pos_);
        std::memcpy(out + total, buffer_.data() + pos_, n);
        pos_ += n;
        total += n;
    }
    return total;
}

bool
InStream::readExact(void *dst, std::size_t size)
{
    return read(dst, size) == size;
}

bool
InStream::getLine(std::string &line)
{
    line.clear();
    bool any = false;
    while (true) {
        if (pos_ == limit_ && !fill())
            return any;
        any = true;
        const auto *start = buffer_.data() + pos_;
        const auto *nl = static_cast<const std::uint8_t *>(
            std::memchr(start, '\n', limit_ - pos_));
        if (nl) {
            line.append(reinterpret_cast<const char *>(start),
                        static_cast<std::size_t>(nl - start));
            pos_ += static_cast<std::size_t>(nl - start) + 1;
            return true;
        }
        line.append(reinterpret_cast<const char *>(start), limit_ - pos_);
        pos_ = limit_;
    }
}

bool
InStream::atEnd()
{
    return pos_ == limit_ && !fill();
}

OutStream::OutStream(std::unique_ptr<ByteSink> sink, std::size_t buffer_size)
    : sink_(std::move(sink)), buffer_(buffer_size)
{}

OutStream::~OutStream()
{
    close();
}

bool
OutStream::flushBuffer()
{
    if (pos_ > 0) {
        if (!sink_->write(buffer_.data(), pos_))
            failed_ = true;
        pos_ = 0;
    }
    return !failed_;
}

bool
OutStream::write(const void *src, std::size_t size)
{
    if (failed_ || closed_)
        return false;
    const auto *p = static_cast<const std::uint8_t *>(src);
    if (size >= buffer_.size()) {
        // Large writes bypass the buffer.
        if (!flushBuffer())
            return false;
        if (!sink_->write(p, size))
            failed_ = true;
        return !failed_;
    }
    while (size > 0) {
        std::size_t room = buffer_.size() - pos_;
        std::size_t n = std::min(room, size);
        std::memcpy(buffer_.data() + pos_, p, n);
        pos_ += n;
        p += n;
        size -= n;
        if (pos_ == buffer_.size() && !flushBuffer())
            return false;
    }
    return true;
}

bool
OutStream::close()
{
    if (closed_)
        return !failed_;
    closed_ = true;
    flushBuffer();
    if (!sink_->finish())
        failed_ = true;
    return !failed_;
}

std::unique_ptr<InStream>
openInput(const std::string &path)
{
    auto src = openSource(path);
    if (!src)
        return nullptr;
    return std::make_unique<InStream>(std::move(src));
}

std::unique_ptr<OutStream>
openOutput(const std::string &path, int level)
{
    auto sink = openSink(path, codecFromPath(path), level);
    if (!sink)
        return nullptr;
    return std::make_unique<OutStream>(std::move(sink));
}

} // namespace mbp::compress
