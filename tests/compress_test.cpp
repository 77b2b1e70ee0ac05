/**
 * @file
 * Unit and property tests for the compression substrate: FLZ block codec,
 * framed streams, gzip streams, buffered stream wrappers, codec sniffing.
 */
#include "mbp/compress/flz.hpp"
#include "mbp/compress/prefetch.hpp"
#include "mbp/compress/streams.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <string>

#include "test_tmp.hpp"

namespace compress = mbp::compress;
using compress::Codec;

namespace
{

std::vector<std::uint8_t>
flzRoundTrip(const std::vector<std::uint8_t> &input, int effort = 4)
{
    auto comp = compress::flzCompress(
        input.data(), input.size(), effort);
    std::vector<std::uint8_t> out(input.size());
    EXPECT_TRUE(compress::flzDecompressBlock(comp.data(), comp.size(),
                                             out.data(), out.size()));
    return out;
}

std::string
tempPath(const std::string &name)
{
    return mbp::test::tempDir() + "/" + name;
}

/** Pushes `data` through sink-chain into memory and reads it back. */
std::vector<std::uint8_t>
streamRoundTrip(const std::vector<std::uint8_t> &data, Codec codec, int level,
                std::size_t chunk)
{
    auto mem = std::make_unique<compress::MemorySink>();
    auto *mem_raw = mem.get();
    std::unique_ptr<compress::ByteSink> sink;
    switch (codec) {
      case Codec::kGzip:
        sink = compress::makeGzipSink(std::move(mem), level);
        break;
      case Codec::kFlz:
        sink = compress::makeFlzSink(std::move(mem), level);
        break;
      case Codec::kRaw:
        sink = std::move(mem);
        break;
    }
    for (std::size_t i = 0; i < data.size(); i += chunk) {
        std::size_t n = std::min(chunk, data.size() - i);
        EXPECT_TRUE(sink->write(data.data() + i, n));
    }
    EXPECT_TRUE(sink->finish());
    std::vector<std::uint8_t> encoded = mem_raw->buffer();

    auto src = std::make_unique<compress::MemorySource>(encoded.data(),
                                                        encoded.size());
    std::unique_ptr<compress::ByteSource> dec;
    switch (codec) {
      case Codec::kGzip:
        dec = compress::makeGzipSource(std::move(src));
        break;
      case Codec::kFlz:
        dec = compress::makeFlzSource(std::move(src));
        break;
      case Codec::kRaw:
        dec = std::move(src);
        break;
    }
    std::vector<std::uint8_t> out;
    std::uint8_t buf[777];
    std::size_t n;
    while ((n = dec->read(buf, sizeof buf)) > 0)
        out.insert(out.end(), buf, buf + n);
    EXPECT_FALSE(dec->failed());
    return out;
}

std::vector<std::uint8_t>
makeCompressibleData(std::size_t size, unsigned seed)
{
    std::mt19937 rng(seed);
    std::vector<std::uint8_t> data;
    data.reserve(size);
    std::uniform_int_distribution<int> byte(0, 255);
    std::uniform_int_distribution<int> mode(0, 3);
    while (data.size() < size) {
        switch (mode(rng)) {
          case 0: { // random run
            std::size_t n = 1 + rng() % 64;
            for (std::size_t i = 0; i < n && data.size() < size; ++i)
                data.push_back(static_cast<std::uint8_t>(byte(rng)));
            break;
          }
          case 1: { // RLE run
            std::uint8_t b = static_cast<std::uint8_t>(byte(rng));
            std::size_t n = 4 + rng() % 500;
            for (std::size_t i = 0; i < n && data.size() < size; ++i)
                data.push_back(b);
            break;
          }
          case 2: { // repeat earlier content
            if (data.size() < 8)
                break;
            std::size_t off = 1 + rng() % std::min<std::size_t>(
                                      data.size(), 60000);
            std::size_t n = 4 + rng() % 300;
            for (std::size_t i = 0; i < n && data.size() < size; ++i)
                data.push_back(data[data.size() - off]);
            break;
          }
          default: { // short pattern
            std::size_t period = 1 + rng() % 9;
            std::size_t n = period * (2 + rng() % 40);
            std::size_t start = data.size();
            for (std::size_t i = 0; i < n && data.size() < size; ++i) {
                data.push_back(i < period
                                   ? static_cast<std::uint8_t>(byte(rng))
                                   : data[start + i - period]);
            }
            break;
          }
        }
    }
    data.resize(size);
    return data;
}

} // namespace

TEST(Flz, EmptyInput)
{
    auto comp = compress::flzCompress(nullptr, 0);
    ASSERT_FALSE(comp.empty());
    std::uint8_t sentinel[1] = {0xcd};
    EXPECT_TRUE(compress::flzDecompressBlock(comp.data(), comp.size(),
                                             sentinel, 0));
    EXPECT_EQ(sentinel[0], 0xcd) << "must not write past declared size";
}

TEST(Flz, TinyInputsAreLiteralOnly)
{
    for (std::size_t n = 1; n <= 5; ++n) {
        std::vector<std::uint8_t> in;
        for (std::size_t i = 0; i < n; ++i)
            in.push_back(static_cast<std::uint8_t>(i + 1));
        EXPECT_EQ(flzRoundTrip(in), in) << "size " << n;
    }
}

TEST(Flz, RleCompressesWell)
{
    std::vector<std::uint8_t> in(100000, 0xab);
    auto comp = compress::flzCompress(in.data(), in.size());
    EXPECT_LT(comp.size(), in.size() / 50);
    EXPECT_EQ(flzRoundTrip(in), in);
}

TEST(Flz, OverlappingMatchDecodes)
{
    // "abcabcabc..." forces offset < match length (overlap copy).
    std::vector<std::uint8_t> in;
    for (int i = 0; i < 1000; ++i)
        in.push_back(static_cast<std::uint8_t>("abc"[i % 3]));
    EXPECT_EQ(flzRoundTrip(in), in);
}

TEST(Flz, IncompressibleDataSurvives)
{
    std::mt19937 rng(7);
    std::vector<std::uint8_t> in(65536);
    for (auto &b : in)
        b = static_cast<std::uint8_t>(rng());
    EXPECT_EQ(flzRoundTrip(in), in);
    auto comp = compress::flzCompress(in.data(), in.size());
    EXPECT_LE(comp.size(), compress::flzCompressBound(in.size()));
}

TEST(Flz, LongLiteralRunLengthEncoding)
{
    // > 15+255 literals before a match exercises the extension bytes.
    std::mt19937 rng(11);
    std::vector<std::uint8_t> in(500);
    for (std::size_t i = 0; i < 400; ++i)
        in[i] = static_cast<std::uint8_t>(rng());
    for (std::size_t i = 400; i < 500; ++i)
        in[i] = 0x55; // long match at the end
    EXPECT_EQ(flzRoundTrip(in), in);
}

TEST(Flz, RejectsCorruptOffsets)
{
    // Token demanding a match with offset beyond output start.
    std::vector<std::uint8_t> bogus = {0x04, 'a', 0x09, 0x00};
    std::vector<std::uint8_t> out(16);
    EXPECT_FALSE(compress::flzDecompressBlock(bogus.data(), bogus.size(),
                                              out.data(), out.size()));
    // Zero offset is invalid too.
    std::vector<std::uint8_t> zero_off = {0x14, 'a', 0x00, 0x00};
    EXPECT_FALSE(compress::flzDecompressBlock(zero_off.data(),
                                              zero_off.size(), out.data(),
                                              out.size()));
}

TEST(Flz, RejectsWrongDeclaredSize)
{
    std::vector<std::uint8_t> in(1000, 'x');
    auto comp = compress::flzCompress(in.data(), in.size());
    std::vector<std::uint8_t> out(in.size() + 1);
    EXPECT_FALSE(compress::flzDecompressBlock(comp.data(), comp.size(),
                                              out.data(), out.size()));
}

namespace
{

/** A hand-made FLZ block: its token stream and the bytes it decodes to. */
struct CraftedBlock
{
    bool wide = false;
    std::vector<std::uint8_t> comp;
    std::vector<std::uint8_t> raw;

    void
    putRun(std::size_t len)
    {
        for (; len >= 255; len -= 255)
            comp.push_back(255);
        comp.push_back(static_cast<std::uint8_t>(len));
    }

    /**
     * Appends @p literals, then a match of @p match_len bytes at
     * @p offset; a zero @p match_len makes this the final sequence.
     */
    void
    add(const std::vector<std::uint8_t> &literals, std::size_t offset = 0,
        std::size_t match_len = 0)
    {
        const std::size_t code = match_len ? match_len - 4 : 0;
        comp.push_back(static_cast<std::uint8_t>(
            (std::min<std::size_t>(literals.size(), 15) << 4) |
            std::min<std::size_t>(code, 15)));
        if (literals.size() >= 15)
            putRun(literals.size() - 15);
        comp.insert(comp.end(), literals.begin(), literals.end());
        raw.insert(raw.end(), literals.begin(), literals.end());
        if (match_len == 0)
            return;
        for (std::size_t i = 0; i < (wide ? 3u : 2u); ++i)
            comp.push_back(static_cast<std::uint8_t>(offset >> (8 * i)));
        if (code >= 15)
            putRun(code - 15);
        for (std::size_t i = 0; i < match_len; ++i)
            raw.push_back(raw[raw.size() - offset]);
    }
};

/** The bytes of an FLZ1 frame, or of an FLZ2 one when @p wide. */
class FrameBytes
{
  public:
    explicit FrameBytes(bool wide)
        : bytes_(wide ? compress::kFlz2Magic : compress::kFlzMagic,
                 (wide ? compress::kFlz2Magic : compress::kFlzMagic) + 4)
    {}

    /** Appends a block of @p raw_size bytes; a zero @p comp_size stores it. */
    void
    block(std::size_t raw_size, const std::uint8_t *payload,
          std::size_t comp_size)
    {
        put32(raw_size);
        put32(comp_size);
        bytes_.insert(bytes_.end(), payload,
                      payload + (comp_size ? comp_size : raw_size));
    }

    /** The frame with its end marker. */
    std::vector<std::uint8_t>
    finish()
    {
        put32(0);
        put32(0);
        return bytes_;
    }

  private:
    void
    put32(std::size_t v)
    {
        for (int i = 0; i < 4; ++i)
            bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    std::vector<std::uint8_t> bytes_;
};

std::vector<std::uint8_t>
noise(std::size_t n, std::mt19937 &rng)
{
    std::vector<std::uint8_t> bytes(n);
    for (auto &b : bytes)
        b = static_cast<std::uint8_t>(rng());
    return bytes;
}

/**
 * Blocks that reach every copy path of the decoder: overlapping matches
 * at offsets 1-17, literal runs of 14, 15, 16 and 270 bytes, matches
 * that end within 16 bytes of the block's end (one of them exactly at
 * it), and a compressor-made block of 200 kB.
 */
std::vector<CraftedBlock>
copyPathBlocks(bool wide)
{
    std::mt19937 rng(wide ? 29 : 28);
    CraftedBlock paths;
    paths.wide = wide;
    paths.add(noise(40, rng), 40, 4);
    for (std::size_t offset = 1; offset <= 17; ++offset)
        paths.add(noise(offset % 4, rng), offset, 4 + (offset * 7) % 40);
    for (std::size_t lits : {14, 15, 16, 270})
        paths.add(noise(lits, rng), 100, 20);
    // Matches ending 18 and 6 bytes before the end of the block; the
    // second one's 8-byte chunks would overrun it by one byte.
    paths.add(noise(3, rng), 32, 24);
    paths.add(noise(3, rng), 9, 9);
    paths.add(noise(6, rng));

    // A match whose 16-byte chunks would overrun the block by one byte.
    CraftedBlock near_end;
    near_end.wide = wide;
    near_end.add(noise(20, rng), 20, 17);
    near_end.add(noise(14, rng));

    CraftedBlock ends_in_match;
    ends_in_match.wide = wide;
    ends_in_match.add(noise(20, rng), 17, 30);
    ends_in_match.add(noise(1, rng), 16, 21);
    ends_in_match.add({});

    CraftedBlock made;
    made.wide = wide;
    made.raw = makeCompressibleData(200000, wide ? 41 : 40);
    made.comp.resize(compress::flzCompressBound(made.raw.size()));
    made.comp.resize(compress::flzCompressBlock(
        made.raw.data(), made.raw.size(), made.comp.data(), 8, wide));
    return {paths, near_end, ends_in_match, made};
}

} // namespace

TEST(Flz, ResumableDecodeMatchesOneShot)
{
    const std::size_t kStops[] = {1, 15, 16, 17, 4096, 65536, SIZE_MAX};
    for (bool wide : {false, true}) {
        const std::vector<CraftedBlock> blocks = copyPathBlocks(wide);
        for (std::size_t b = 0; b < blocks.size(); ++b) {
            SCOPED_TRACE("wide " + std::to_string(wide) + ", block " +
                         std::to_string(b));
            const CraftedBlock &block = blocks[b];
            const std::size_t size = block.raw.size();
            ASSERT_TRUE(compress::flzCheckBlock(block.comp.data(),
                                                block.comp.size(), size,
                                                wide));
            EXPECT_FALSE(compress::flzCheckBlock(
                block.comp.data(), block.comp.size(), size + 1, wide));
            std::vector<std::uint8_t> one_shot(size);
            ASSERT_TRUE(compress::flzDecompressBlock(
                block.comp.data(), block.comp.size(), one_shot.data(), size,
                wide));
            ASSERT_EQ(one_shot, block.raw);
            for (std::size_t step : kStops) {
                SCOPED_TRACE("stop step " + std::to_string(step));
                // Guard bytes past the block catch a chunk copy that
                // overruns it.
                std::vector<std::uint8_t> out(size + 16, 0xa5);
                compress::FlzCursor cursor;
                while (cursor.out < size) {
                    const std::size_t before = cursor.out;
                    const std::size_t stop =
                        step > size - before ? size : before + step;
                    ASSERT_TRUE(compress::flzDecodeRange(
                        block.comp.data(), block.comp.size(), out.data(),
                        size, cursor, stop, wide));
                    ASSERT_GE(cursor.out, stop);
                    ASSERT_LE(cursor.out, size);
                    ASSERT_TRUE(std::equal(out.begin(),
                                           out.begin() + cursor.out,
                                           one_shot.begin()));
                }
                EXPECT_EQ(cursor.in, block.comp.size());
                EXPECT_EQ(std::vector<std::uint8_t>(out.begin() + size,
                                                    out.end()),
                          std::vector<std::uint8_t>(16, 0xa5));
                out.resize(size);
                EXPECT_EQ(out, block.raw);
            }
        }

        // The same blocks framed around a stored one, read through a
        // frame source in chunks of every stop size.
        FrameBytes framed(wide);
        std::vector<std::uint8_t> want;
        // An empty comp stores the block.
        const auto putBlock = [&](const std::vector<std::uint8_t> &raw,
                                  const std::vector<std::uint8_t> &comp) {
            framed.block(raw.size(), comp.empty() ? raw.data() : comp.data(),
                         comp.size());
            want.insert(want.end(), raw.begin(), raw.end());
        };
        std::mt19937 rng(5);
        putBlock(blocks[0].raw, blocks[0].comp);
        putBlock(noise(5000, rng), {});
        for (const CraftedBlock &block : blocks)
            putBlock(block.raw, block.comp);
        const std::vector<std::uint8_t> frame = framed.finish();
        for (std::size_t step : kStops) {
            SCOPED_TRACE("frame read size " + std::to_string(step));
            auto dec = compress::makeFlzSource(
                std::make_unique<compress::MemorySource>(frame.data(),
                                                         frame.size()));
            std::vector<std::uint8_t> got(want.size() + 1);
            std::size_t total = 0, n;
            while ((n = dec->read(got.data() + total,
                                  std::min(step, got.size() - total))) > 0)
                total += n;
            EXPECT_FALSE(dec->failed());
            got.resize(total);
            EXPECT_EQ(got, want);
        }
    }
}

/** Property sweep: random structured buffers round-trip at all efforts. */
class FlzProperty : public testing::TestWithParam<std::tuple<int, int>>
{};

TEST_P(FlzProperty, RoundTrip)
{
    auto [seed, effort] = GetParam();
    auto data = makeCompressibleData(50000 + seed * 1111, seed);
    EXPECT_EQ(flzRoundTrip(data, effort), data);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, FlzProperty,
    testing::Combine(testing::Range(0, 12), testing::Values(1, 4, 16)));

class StreamRoundTrip
    : public testing::TestWithParam<std::tuple<Codec, int, std::size_t>>
{};

TEST_P(StreamRoundTrip, ArbitraryChunking)
{
    auto [codec, size, chunk] = GetParam();
    auto data = makeCompressibleData(static_cast<std::size_t>(size), 99);
    EXPECT_EQ(streamRoundTrip(data, codec, -1, chunk), data);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, StreamRoundTrip,
    testing::Combine(testing::Values(Codec::kRaw, Codec::kGzip, Codec::kFlz),
                     testing::Values(0, 1, 1000, 300000, 1 << 20),
                     testing::Values(std::size_t(1), std::size_t(4096),
                                     std::size_t(1 << 20))));

TEST(FlzFrame, MultipleBlocks)
{
    // More data than one frame block forces several blocks.
    auto data = makeCompressibleData(3 * compress::kFlzBlockSize + 17, 3);
    EXPECT_EQ(streamRoundTrip(data, Codec::kFlz, 9, 1 << 16), data);
}

TEST(FlzFrame, DetectsTruncation)
{
    auto data = makeCompressibleData(100000, 5);
    auto mem = std::make_unique<compress::MemorySink>();
    auto *mem_raw = mem.get();
    auto sink = compress::makeFlzSink(std::move(mem), -1);
    ASSERT_TRUE(sink->write(data.data(), data.size()));
    ASSERT_TRUE(sink->finish());
    auto encoded = mem_raw->buffer();
    encoded.resize(encoded.size() / 2);

    auto dec = compress::makeFlzSource(std::make_unique<compress::MemorySource>(
        encoded.data(), encoded.size()));
    std::vector<std::uint8_t> out(data.size());
    std::size_t got = 0, n;
    while ((n = dec->read(out.data() + got, out.size() - got)) > 0)
        got += n;
    EXPECT_TRUE(dec->failed());
}

TEST(FlzFrame, RejectsBadMagic)
{
    std::uint8_t junk[16] = {'N', 'O', 'P', 'E'};
    auto dec = compress::makeFlzSource(
        std::make_unique<compress::MemorySource>(junk, sizeof junk));
    std::uint8_t buf[8];
    EXPECT_EQ(dec->read(buf, sizeof buf), 0u);
    EXPECT_TRUE(dec->failed());
}

TEST(Gzip, DetectsTruncation)
{
    auto data = makeCompressibleData(100000, 6);
    auto mem = std::make_unique<compress::MemorySink>();
    auto *mem_raw = mem.get();
    auto sink = compress::makeGzipSink(std::move(mem), 6);
    ASSERT_TRUE(sink->write(data.data(), data.size()));
    ASSERT_TRUE(sink->finish());
    auto encoded = mem_raw->buffer();
    encoded.resize(encoded.size() / 3);

    auto dec = compress::makeGzipSource(std::make_unique<compress::MemorySource>(
        encoded.data(), encoded.size()));
    std::vector<std::uint8_t> out(data.size());
    std::size_t got = 0, n;
    while ((n = dec->read(out.data() + got, out.size() - got)) > 0)
        got += n;
    EXPECT_LT(got, data.size());
    EXPECT_TRUE(dec->failed());
}

TEST(Gzip, TruncationAfterPartialDecodeFailsImmediately)
{
    // The read call that hits the premature end of input must itself raise
    // failed(), even though it already produced bytes: a consumer that
    // checks failed() right after the short read (without issuing another)
    // must not mistake the truncation for a clean EOF.
    auto data = makeCompressibleData(200000, 17);
    auto mem = std::make_unique<compress::MemorySink>();
    auto *mem_raw = mem.get();
    auto sink = compress::makeGzipSink(std::move(mem), 6);
    ASSERT_TRUE(sink->write(data.data(), data.size()));
    ASSERT_TRUE(sink->finish());
    auto encoded = mem_raw->buffer();
    encoded.resize(encoded.size() / 2);

    auto dec = compress::makeGzipSource(
        std::make_unique<compress::MemorySource>(encoded.data(),
                                                 encoded.size()));
    std::vector<std::uint8_t> out(data.size());
    std::size_t got = dec->read(out.data(), out.size());
    EXPECT_GT(got, 0u) << "half the stream should decode";
    EXPECT_LT(got, data.size());
    EXPECT_TRUE(dec->failed())
        << "partial decode of a truncated stream must not look clean";
}

TEST(Gzip, TrailerTruncationDetected)
{
    // Cutting inside the 8-byte gzip trailer yields the complete payload
    // but the stream never reaches Z_STREAM_END: still a truncation.
    auto data = makeCompressibleData(50000, 19);
    auto mem = std::make_unique<compress::MemorySink>();
    auto *mem_raw = mem.get();
    auto sink = compress::makeGzipSink(std::move(mem), 6);
    ASSERT_TRUE(sink->write(data.data(), data.size()));
    ASSERT_TRUE(sink->finish());
    auto encoded = mem_raw->buffer();
    encoded.resize(encoded.size() - 4);

    auto dec = compress::makeGzipSource(
        std::make_unique<compress::MemorySource>(encoded.data(),
                                                 encoded.size()));
    // Slack beyond the payload so the drain loop polls the stream once
    // more after the last payload byte and actually hits the cut trailer.
    std::vector<std::uint8_t> out(data.size() + 64);
    std::size_t got = 0, n;
    while ((n = dec->read(out.data() + got, out.size() - got)) > 0)
        got += n;
    EXPECT_EQ(got, data.size()) << "payload itself decodes fully";
    EXPECT_TRUE(dec->failed());
}

TEST(FlzFrame, TruncationAfterPartialDecodeFailsImmediately)
{
    // Same contract as gzip: the short read itself reports failed().
    // FLZ2 blocks are 8 MiB of raw data, so the payload must span more
    // than one block for a cut to leave a decodable prefix.
    auto data = makeCompressibleData(20 << 20, 23);
    auto mem = std::make_unique<compress::MemorySink>();
    auto *mem_raw = mem.get();
    auto sink = compress::makeFlzSink(std::move(mem), -1);
    ASSERT_TRUE(sink->write(data.data(), data.size()));
    ASSERT_TRUE(sink->finish());
    auto encoded = mem_raw->buffer();
    encoded.resize(encoded.size() * 2 / 3);

    auto dec = compress::makeFlzSource(
        std::make_unique<compress::MemorySource>(encoded.data(),
                                                 encoded.size()));
    std::vector<std::uint8_t> out(data.size());
    std::size_t got = dec->read(out.data(), out.size());
    EXPECT_GT(got, 0u);
    EXPECT_LT(got, data.size());
    EXPECT_TRUE(dec->failed());
}

TEST(FlzFrame, RejectsAbsurdBlockHeaders)
{
    // A corrupt block header must fail cleanly instead of driving a
    // multi-gigabyte allocation.
    auto craft = [](std::uint32_t raw_size, std::uint32_t comp_size) {
        std::vector<std::uint8_t> frame = {'F', 'L', 'Z', '2'};
        for (int shift = 0; shift < 32; shift += 8)
            frame.push_back(std::uint8_t(raw_size >> shift));
        for (int shift = 0; shift < 32; shift += 8)
            frame.push_back(std::uint8_t(comp_size >> shift));
        frame.resize(frame.size() + 64, 0xaa); // some payload bytes
        return frame;
    };
    for (auto [raw_size, comp_size] :
         {std::pair<std::uint32_t, std::uint32_t>{0xffffffffu, 100u},
          {100u, 0xffffff00u},
          {std::uint32_t(8 * 1024 * 1024 + 1), 0u}}) {
        auto frame = craft(raw_size, comp_size);
        auto dec = compress::makeFlzSource(
            std::make_unique<compress::MemorySource>(frame.data(),
                                                     frame.size()));
        std::uint8_t buf[256];
        EXPECT_EQ(dec->read(buf, sizeof buf), 0u);
        EXPECT_TRUE(dec->failed())
            << "raw_size=" << raw_size << " comp_size=" << comp_size;
    }
}

TEST(FlzFrame, CorruptSequenceDeliversNoneOfItsBlock)
{
    // A stored block, then a 2 MiB block whose one bad match (an offset
    // reaching one byte before the block) sits past its first MiB. A
    // block is checked whole before any of it leaves, so neither small
    // reads nor a prefetch slot's worth of it may come out.
    const auto data = makeCompressibleData(2 << 20, 51);
    const std::size_t at = (1 << 20) + 12345;
    const std::size_t tail = data.size() - at - 4;
    std::vector<std::uint8_t> comp(compress::flzCompressBound(at) + 3 +
                                   compress::flzCompressBound(tail));
    // The head's final literal-only sequence gains a 4-byte match.
    std::size_t n =
        compress::flzCompressBlock(data.data(), at, comp.data(), 4, true);
    for (int i = 0; i < 3; ++i)
        comp[n++] = static_cast<std::uint8_t>((at + 1) >> (8 * i));
    n += compress::flzCompressBlock(data.data() + at + 4, tail,
                                    comp.data() + n, 4, true);
    ASSERT_FALSE(compress::flzCheckBlock(comp.data(), n, data.size(), true));

    const std::size_t kStored = 1000;
    FrameBytes framed(true);
    framed.block(kStored, data.data(), 0);
    framed.block(data.size(), comp.data(), n);
    const std::vector<std::uint8_t> frame = framed.finish();

    for (bool prefetch : {false, true}) {
        for (std::size_t chunk : {std::size_t(4096), std::size_t(1) << 20}) {
            SCOPED_TRACE("prefetch " + std::to_string(prefetch) +
                         ", read size " + std::to_string(chunk));
            std::unique_ptr<compress::ByteSource> dec =
                compress::makeFlzSource(
                    std::make_unique<compress::MemorySource>(frame.data(),
                                                             frame.size()));
            if (prefetch)
                dec = std::make_unique<compress::PrefetchSource>(
                    std::move(dec));
            std::vector<std::uint8_t> buf(chunk);
            std::size_t total = 0, got;
            while ((got = dec->read(buf.data(), buf.size())) > 0)
                total += got;
            EXPECT_EQ(total, kStored);
            EXPECT_TRUE(dec->failed());
        }
    }
}

TEST(Prefetch, RoundTripAcrossChunkSizes)
{
    auto data = makeCompressibleData(300000, 29);
    for (std::size_t chunk : {std::size_t(1), std::size_t(777),
                              std::size_t(65536), data.size()}) {
        compress::PrefetchSource src(
            std::make_unique<compress::MemorySource>(data.data(),
                                                     data.size()),
            8192);
        std::vector<std::uint8_t> out;
        std::vector<std::uint8_t> buf(chunk);
        std::size_t n;
        while ((n = src.read(buf.data(), buf.size())) > 0)
            out.insert(out.end(), buf.data(), buf.data() + n);
        EXPECT_EQ(out, data) << "chunk " << chunk;
        EXPECT_FALSE(src.failed());
        EXPECT_EQ(src.bytesProduced(), data.size());
        EXPECT_GE(src.stallSeconds(), 0.0);
        // Reads past the end keep returning 0.
        EXPECT_EQ(src.read(buf.data(), buf.size()), 0u);
    }
}

TEST(Prefetch, DecompressesGzipOnWorkerThread)
{
    auto data = makeCompressibleData(500000, 31);
    auto mem = std::make_unique<compress::MemorySink>();
    auto *mem_raw = mem.get();
    auto sink = compress::makeGzipSink(std::move(mem), 6);
    ASSERT_TRUE(sink->write(data.data(), data.size()));
    ASSERT_TRUE(sink->finish());
    auto encoded = mem_raw->buffer();

    compress::PrefetchSource src(
        compress::makeGzipSource(std::make_unique<compress::MemorySource>(
            encoded.data(), encoded.size())));
    std::vector<std::uint8_t> out(data.size());
    std::size_t got = 0, n;
    while ((n = src.read(out.data() + got, out.size() - got)) > 0)
        got += n;
    EXPECT_EQ(got, data.size());
    EXPECT_EQ(out, data);
    EXPECT_FALSE(src.failed());
}

TEST(Prefetch, PropagatesInnerCorruption)
{
    auto data = makeCompressibleData(400000, 37);
    auto mem = std::make_unique<compress::MemorySink>();
    auto *mem_raw = mem.get();
    auto sink = compress::makeGzipSink(std::move(mem), 6);
    ASSERT_TRUE(sink->write(data.data(), data.size()));
    ASSERT_TRUE(sink->finish());
    auto encoded = mem_raw->buffer();
    encoded.resize(encoded.size() / 2);

    compress::PrefetchSource src(
        compress::makeGzipSource(std::make_unique<compress::MemorySource>(
            encoded.data(), encoded.size())));
    std::vector<std::uint8_t> out(data.size());
    std::size_t got = 0, n;
    while ((n = src.read(out.data() + got, out.size() - got)) > 0)
        got += n;
    EXPECT_LT(got, data.size());
    EXPECT_TRUE(src.failed());
}

TEST(Prefetch, DestructionWithoutDrainingJoinsCleanly)
{
    auto data = makeCompressibleData(1 << 20, 41);
    for (int reads : {0, 1, 3}) {
        compress::PrefetchSource src(
            std::make_unique<compress::MemorySource>(data.data(),
                                                     data.size()),
            4096);
        std::uint8_t buf[512];
        for (int i = 0; i < reads; ++i)
            src.read(buf, sizeof buf);
        // Destructor must stop and join the worker without deadlocking.
    }
}

TEST(Codec, FromPath)
{
    EXPECT_EQ(compress::codecFromPath("a/b/t.sbbt.gz"), Codec::kGzip);
    EXPECT_EQ(compress::codecFromPath("t.sbbt.flz"), Codec::kFlz);
    EXPECT_EQ(compress::codecFromPath("t.sbbt.zst"), Codec::kFlz);
    EXPECT_EQ(compress::codecFromPath("t.sbbt"), Codec::kRaw);
    EXPECT_EQ(compress::codecFromPath("nogz"), Codec::kRaw);
}

TEST(Codec, Names)
{
    EXPECT_STREQ(compress::codecName(Codec::kRaw), "raw");
    EXPECT_STREQ(compress::codecName(Codec::kGzip), "gzip");
    EXPECT_STREQ(compress::codecName(Codec::kFlz), "flz");
}

class FileRoundTrip : public testing::TestWithParam<const char *>
{};

TEST_P(FileRoundTrip, OpenOutputOpenInput)
{
    std::string path = tempPath(std::string("rt_") + GetParam());
    auto data = makeCompressibleData(200000, 42);
    {
        auto out = compress::openOutput(path, -1);
        ASSERT_NE(out, nullptr);
        ASSERT_TRUE(out->write(data.data(), data.size()));
        ASSERT_TRUE(out->close());
    }
    auto in = compress::openInput(path);
    ASSERT_NE(in, nullptr);
    std::vector<std::uint8_t> back(data.size());
    EXPECT_TRUE(in->readExact(back.data(), back.size()));
    EXPECT_TRUE(in->atEnd());
    EXPECT_EQ(back, data);
    std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Extensions, FileRoundTrip,
                         testing::Values("plain.bin", "zipped.bin.gz",
                                         "fast.bin.flz"));

TEST(FileSniff, MagicDetectionWithoutExtension)
{
    // Write gzip data into a file with no .gz extension; openInput must
    // sniff the magic and decompress anyway.
    std::string path = tempPath("sniffme.dat");
    auto data = makeCompressibleData(5000, 13);
    {
        auto sink = compress::openSink(path, Codec::kGzip, 6);
        ASSERT_NE(sink, nullptr);
        ASSERT_TRUE(sink->write(data.data(), data.size()));
        ASSERT_TRUE(sink->finish());
    }
    auto in = compress::openInput(path);
    ASSERT_NE(in, nullptr);
    std::vector<std::uint8_t> back(data.size());
    EXPECT_TRUE(in->readExact(back.data(), back.size()));
    EXPECT_EQ(back, data);
    std::remove(path.c_str());
}

TEST(InStream, GetLine)
{
    std::string text = "first\nsecond\n\nlast-without-newline";
    auto in = compress::InStream(
        std::make_unique<compress::MemorySource>(text.data(), text.size()),
        8 /* tiny buffer to exercise refills */);
    std::string line;
    ASSERT_TRUE(in.getLine(line));
    EXPECT_EQ(line, "first");
    ASSERT_TRUE(in.getLine(line));
    EXPECT_EQ(line, "second");
    ASSERT_TRUE(in.getLine(line));
    EXPECT_EQ(line, "");
    ASSERT_TRUE(in.getLine(line));
    EXPECT_EQ(line, "last-without-newline");
    EXPECT_FALSE(in.getLine(line));
}

TEST(OutStream, LargeWriteBypassesBuffer)
{
    auto mem = std::make_unique<compress::MemorySink>();
    auto *mem_raw = mem.get();
    compress::OutStream out(std::move(mem), 16);
    std::vector<std::uint8_t> big(1000, 0x5a);
    ASSERT_TRUE(out.write(big.data(), big.size()));
    ASSERT_TRUE(out.write("tail"));
    ASSERT_TRUE(out.close());
    EXPECT_EQ(mem_raw->buffer().size(), 1004u);
}

TEST(OpenInput, MissingFileReturnsNull)
{
    EXPECT_EQ(compress::openInput("/nonexistent/nowhere.gz"), nullptr);
    EXPECT_EQ(compress::openOutput("/nonexistent/dir/file.gz"), nullptr);
}

/** Wide-offset (v2) block codec: same properties as v1 plus long-range. */
class FlzWideProperty : public testing::TestWithParam<int>
{};

TEST_P(FlzWideProperty, RoundTripWide)
{
    auto data = makeCompressibleData(80000 + GetParam() * 3333,
                                     unsigned(GetParam()) + 100);
    auto bound = compress::flzCompressBound(data.size());
    std::vector<std::uint8_t> comp(bound);
    std::size_t n = compress::flzCompressBlock(data.data(), data.size(),
                                               comp.data(), 8, true);
    ASSERT_LE(n, bound);
    std::vector<std::uint8_t> out(data.size());
    ASSERT_TRUE(compress::flzDecompressBlock(comp.data(), n, out.data(),
                                             out.size(), true));
    EXPECT_EQ(out, data);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlzWideProperty, testing::Range(0, 8));

TEST(FlzWide, CatchesLongRangeMatchesNarrowCannot)
{
    // Two identical high-entropy 200 kB chunks separated by 300 kB of
    // noise: the chunk has no internal matches, so the only way to
    // compress the second copy is referencing the first — possible only
    // with 24-bit offsets.
    std::mt19937 rng(21);
    std::vector<std::uint8_t> chunk(200000);
    for (auto &b : chunk)
        b = static_cast<std::uint8_t>(rng());
    std::vector<std::uint8_t> data = chunk;
    for (int i = 0; i < 300000; ++i)
        data.push_back(static_cast<std::uint8_t>(rng()));
    data.insert(data.end(), chunk.begin(), chunk.end());

    std::vector<std::uint8_t> buf(compress::flzCompressBound(data.size()));
    std::size_t narrow = compress::flzCompressBlock(data.data(), data.size(),
                                                    buf.data(), 8, false);
    std::size_t wide = compress::flzCompressBlock(data.data(), data.size(),
                                                  buf.data(), 8, true);
    EXPECT_LT(wide, narrow);
}

TEST(FlzWide, FrameMagicSelectsWidth)
{
    auto data = makeCompressibleData(50000, 31);
    for (bool wide : {false, true}) {
        auto mem = std::make_unique<compress::MemorySink>();
        auto *mem_raw = mem.get();
        auto sink = compress::makeFlzSink(std::move(mem), -1, wide);
        ASSERT_TRUE(sink->write(data.data(), data.size()));
        ASSERT_TRUE(sink->finish());
        auto encoded = mem_raw->buffer();
        ASSERT_GE(encoded.size(), 4u);
        EXPECT_EQ(encoded[3], wide ? '2' : '1');
        // The source auto-detects either frame version.
        auto dec = compress::makeFlzSource(
            std::make_unique<compress::MemorySource>(encoded.data(),
                                                     encoded.size()));
        std::vector<std::uint8_t> out(data.size());
        std::size_t got = 0, n;
        while ((n = dec->read(out.data() + got, out.size() - got)) > 0)
            got += n;
        EXPECT_FALSE(dec->failed());
        EXPECT_EQ(got, data.size());
        EXPECT_EQ(out, data);
    }
}
