/**
 * @file
 * Byte-stream abstractions with pluggable compression.
 *
 * The simulation library reads traces through an InStream and writes them
 * through an OutStream; the codec (raw, gzip, FLZ) is chosen per file by
 * extension or magic-byte sniffing, mirroring how MBPlib decompresses
 * xz/gzip/lz4/zstd traces transparently.
 */
#ifndef MBP_COMPRESS_STREAMS_HPP
#define MBP_COMPRESS_STREAMS_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace mbp::compress
{

/** Compression codec selector. */
enum class Codec
{
    kRaw,  //!< no compression
    kGzip, //!< RFC 1952 gzip via zlib
    kFlz,  //!< MBPlib's own LZ77 codec (stands in for zstd; see DESIGN.md)
};

/** @return The codec implied by @p path 's extension (.gz, .flz, else raw).*/
Codec codecFromPath(std::string_view path);

/** @return A human-readable codec name ("raw", "gzip", "flz"). */
const char *codecName(Codec codec);

/** Abstract pull-based byte producer. */
class ByteSource
{
  public:
    virtual ~ByteSource() = default;

    /**
     * Reads up to @p size bytes into @p dst.
     *
     * @return Bytes produced; 0 means end of stream. Short reads before the
     *         end are allowed.
     */
    virtual std::size_t read(void *dst, std::size_t size) = 0;

    /** @return Whether a decoding error occurred (corrupt input). */
    virtual bool failed() const { return false; }
};

/** Abstract push-based byte consumer. */
class ByteSink
{
  public:
    virtual ~ByteSink() = default;

    /** Writes @p size bytes. @return False on I/O error. */
    virtual bool write(const void *src, std::size_t size) = 0;

    /** Flushes buffered data and finalizes the stream (trailers etc.). */
    virtual bool finish() = 0;
};

/**
 * Opens @p path for reading, stacking a decompressor chosen by extension or,
 * when the extension is unknown, by the file's magic bytes.
 *
 * @return The source, or nullptr when the file cannot be opened.
 */
std::unique_ptr<ByteSource> openSource(const std::string &path);

/**
 * @return The codec openSource() stacks for @p path: by extension, else by
 *         the file's magic bytes; kRaw when neither matches or the file
 *         cannot be opened.
 */
Codec detectCodec(const std::string &path);

/**
 * Opens @p path for writing through @p codec.
 *
 * @param level Effort level (gzip: zlib 1-9; FLZ: match probes; ignored for
 *              raw). Negative selects the codec default. The paper uses the
 *              maximum level for trace distribution.
 * @return The sink, or nullptr when the file cannot be created.
 */
std::unique_ptr<ByteSink> openSink(const std::string &path, Codec codec,
                                   int level = -1);

/** In-memory source over a borrowed buffer (tests, tools). */
class MemorySource : public ByteSource
{
  public:
    MemorySource(const void *data, std::size_t size)
        : data_(static_cast<const std::uint8_t *>(data)), size_(size)
    {}

    std::size_t
    read(void *dst, std::size_t size) override
    {
        std::size_t n = std::min(size, size_ - pos_);
        if (n != 0) // an empty buffer may be null: no memcpy from it
            std::memcpy(dst, data_ + pos_, n);
        pos_ += n;
        return n;
    }

  private:
    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

/** In-memory sink appending to an owned vector (tests, tools). */
class MemorySink : public ByteSink
{
  public:
    bool
    write(const void *src, std::size_t size) override
    {
        const auto *p = static_cast<const std::uint8_t *>(src);
        buffer_.insert(buffer_.end(), p, p + size);
        return true;
    }

    bool finish() override { return true; }

    const std::vector<std::uint8_t> &buffer() const { return buffer_; }
    std::vector<std::uint8_t> takeBuffer() { return std::move(buffer_); }

  private:
    std::vector<std::uint8_t> buffer_;
};

/** Wraps a ByteSource in a gzip decompressor. */
std::unique_ptr<ByteSource> makeGzipSource(std::unique_ptr<ByteSource> inner);
/** Wraps a ByteSink in a gzip compressor. */
std::unique_ptr<ByteSink> makeGzipSink(std::unique_ptr<ByteSink> inner,
                                       int level = -1);
/** Wraps a ByteSource in an FLZ frame decompressor. */
std::unique_ptr<ByteSource> makeFlzSource(std::unique_ptr<ByteSource> inner);
/**
 * Wraps a ByteSink in an FLZ frame compressor.
 *
 * @param wide Use the v2 (24-bit offset, 8 MiB block) format — the default
 *             and what `.flz` files produced by openSink use; narrow v1 is
 *             kept for small streams and compatibility.
 */
std::unique_ptr<ByteSink> makeFlzSink(std::unique_ptr<ByteSink> inner,
                                      int level = -1, bool wide = true);

/**
 * Buffered reader over a ByteSource with convenience record/line accessors.
 */
class InStream
{
  public:
    explicit InStream(std::unique_ptr<ByteSource> source,
                      std::size_t buffer_size = 1 << 16);

    /** Reads up to @p size bytes. @return Bytes read (0 at end). */
    std::size_t read(void *dst, std::size_t size);

    /** Reads exactly @p size bytes. @return False at end/short input. */
    bool readExact(void *dst, std::size_t size);

    /**
     * Reads a '\n'-terminated line (newline stripped, handles trailing
     * unterminated line).
     *
     * @return False when the stream is exhausted before any character.
     */
    bool getLine(std::string &line);

    /** @return Whether all input has been consumed. */
    bool atEnd();

    /** @return Whether the underlying source reported corruption. */
    bool failed() const { return source_ && source_->failed(); }

  private:
    bool fill();

    std::unique_ptr<ByteSource> source_;
    std::vector<std::uint8_t> buffer_;
    std::size_t pos_ = 0;
    std::size_t limit_ = 0;
    bool eof_ = false;
};

/** Buffered writer over a ByteSink. */
class OutStream
{
  public:
    explicit OutStream(std::unique_ptr<ByteSink> sink,
                       std::size_t buffer_size = 1 << 16);
    ~OutStream();

    OutStream(const OutStream &) = delete;
    OutStream &operator=(const OutStream &) = delete;

    /** Buffers @p size bytes for writing. @return False on I/O error. */
    bool write(const void *src, std::size_t size);

    /** Writes a string verbatim. */
    bool write(std::string_view s) { return write(s.data(), s.size()); }

    /** Flushes buffered bytes and finalizes the sink. Idempotent. */
    bool close();

    /** @return Whether any write failed so far. */
    bool failed() const { return failed_; }

  private:
    bool flushBuffer();

    std::unique_ptr<ByteSink> sink_;
    std::vector<std::uint8_t> buffer_;
    std::size_t pos_ = 0;
    bool closed_ = false;
    bool failed_ = false;
};

/**
 * Convenience: opens a buffered, auto-decompressing reader for @p path.
 * @return nullptr when the file cannot be opened.
 */
std::unique_ptr<InStream> openInput(const std::string &path);

/**
 * Convenience: opens a buffered, compressing writer for @p path, choosing
 * the codec from the extension.
 * @return nullptr when the file cannot be created.
 */
std::unique_ptr<OutStream> openOutput(const std::string &path,
                                      int level = -1);

} // namespace mbp::compress

#endif // MBP_COMPRESS_STREAMS_HPP
