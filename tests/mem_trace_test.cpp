/**
 * @file
 * Unit tests for the decoded-column traces: a loaded MemTrace, walked
 * through its column slices, must replay the exact packet stream
 * SbbtReader delivers from the same file — same branches, same gaps,
 * same instruction numbers — and a TraceWindow must hand out the same
 * columns, site ids and site tables block by block; plus the sizing
 * helpers the memory-budgeted cache relies on.
 */
#include "mbp/sbbt/mem_trace.hpp"

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "mbp/compress/streams.hpp"
#include "mbp/sbbt/reader.hpp"
#include "mbp/sbbt/writer.hpp"
#include "mbp/tracegen/generator.hpp"
#include "test_tmp.hpp"

using namespace mbp;

namespace
{

std::string
writeTrace(const std::string &name, std::uint64_t seed,
           std::uint64_t num_instr)
{
    std::string path = mbp::test::tempDir() + "/" + name;
    tracegen::WorkloadSpec spec;
    spec.seed = seed;
    spec.num_instr = num_instr;
    sbbt::SbbtWriter writer(path);
    tracegen::TraceGenerator gen(spec);
    tracegen::TraceEvent ev;
    while (gen.next(ev))
        EXPECT_TRUE(writer.append(ev.branch, ev.instr_gap));
    EXPECT_TRUE(writer.close()) << writer.error();
    return path;
}

/**
 * The bytes of a raw SBBT trace with @p branches branches whose header
 * claims @p claimed of them.
 */
std::vector<std::uint8_t>
inflatedTraceBytes(std::uint64_t branches, std::uint64_t claimed)
{
    const std::string raw = mbp::test::tempDir() + "/inflated_src.sbbt";
    {
        sbbt::SbbtWriter writer(raw);
        for (std::uint64_t i = 0; i < branches; ++i)
            EXPECT_TRUE(writer.append(
                Branch{0x400000 + 16 * (i % 3), 0x400100,
                       OpCode(BranchType::kJump, true, false),
                       i % 2 == 0},
                3));
        EXPECT_TRUE(writer.close()) << writer.error();
    }
    std::ifstream in(raw, std::ios::binary);
    std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                    std::istreambuf_iterator<char>());
    std::remove(raw.c_str());
    const sbbt::Header header{.instruction_count = 4 * branches,
                              .branch_count = claimed};
    const auto encoded = sbbt::encodeHeader(header);
    std::copy(encoded.begin(), encoded.end(), bytes.begin());
    return bytes;
}

/** Writes @p bytes to @p path through the codec its extension names. */
void
writeThroughCodec(const std::string &path,
                  const std::vector<std::uint8_t> &bytes)
{
    auto out = compress::openOutput(path);
    ASSERT_NE(out, nullptr) << path;
    ASSERT_TRUE(out->write(bytes.data(), bytes.size()));
    ASSERT_TRUE(out->close());
}

} // namespace

TEST(MemTrace, LoadFailsOnMissingFile)
{
    std::string error;
    auto trace = sbbt::MemTrace::load(
        mbp::test::tempDir() + "/no-such-trace.sbbt", {}, &error);
    EXPECT_EQ(trace, nullptr);
    EXPECT_NE(error, "");
}

TEST(MemTrace, LoadFailsOnCorruptFile)
{
    const std::string path = mbp::test::tempDir() + "/corrupt.sbbt";
    {
        std::ofstream out(path, std::ios::binary);
        out << "this is not an SBBT trace at all, not even close!";
    }
    std::string error;
    auto trace = sbbt::MemTrace::load(path, {}, &error);
    EXPECT_EQ(trace, nullptr);
    EXPECT_NE(error, "");
    std::remove(path.c_str());
}

TEST(MemTrace, LoadMatchesHeaderAndRowAccessors)
{
    const std::string path = writeTrace("mem_rows.sbbt", 91, 60'000);
    std::string error;
    auto trace = sbbt::MemTrace::load(path, {}, &error);
    ASSERT_NE(trace, nullptr) << error;
    EXPECT_EQ(error, "");

    sbbt::SbbtReader reader(path);
    ASSERT_TRUE(reader.ok()) << reader.error();
    EXPECT_EQ(trace->header().instruction_count,
              reader.header().instruction_count);
    EXPECT_EQ(trace->header().branch_count, reader.header().branch_count);
    EXPECT_EQ(trace->size(), reader.header().branch_count);

    sbbt::PacketData packet;
    std::size_t i = 0;
    while (reader.next(packet)) {
        ASSERT_LT(i, trace->size());
        EXPECT_EQ(trace->ip(i), packet.branch.ip());
        EXPECT_EQ(trace->target(i), packet.branch.target());
        EXPECT_EQ(trace->opcode(i), packet.branch.opcode());
        EXPECT_EQ(trace->taken(i), packet.branch.isTaken());
        EXPECT_EQ(trace->instrNumber(i), reader.instrNumber());
        ++i;
    }
    EXPECT_EQ(reader.error(), "");
    EXPECT_EQ(i, trace->size());

    // The whole decode pass is accounted for.
    EXPECT_EQ(trace->decompressedBytes(), reader.decompressedBytes());
    EXPECT_GE(trace->loadSeconds(), 0.0);
    std::remove(path.c_str());
}

TEST(MemTrace, CursorReplaysReaderStreamInLockstep)
{
    const std::string path = writeTrace("mem_lockstep.sbbt", 92, 80'000);
    std::string error;
    auto trace = sbbt::MemTrace::load(path, {}, &error);
    ASSERT_NE(trace, nullptr) << error;

    // Walk the arena the way the block driver does — in column slices of
    // kSlice rows — in lockstep with the reader.
    constexpr std::size_t kSlice = 4096;
    sbbt::SbbtReader reader(path);
    ASSERT_TRUE(reader.ok()) << reader.error();
    sbbt::PacketData packet;
    std::uint64_t previous_instr = 0;
    std::uint64_t sites = 0;
    std::size_t begin = 0;
    for (sbbt::BranchColumns slice = trace->columns(0, kSlice);
         slice.size > 0; slice = trace->columns(begin, kSlice)) {
        for (std::size_t i = 0; i < slice.size; ++i) {
            ASSERT_TRUE(reader.next(packet));
            const Branch &b = packet.branch;
            EXPECT_EQ(slice.ip[i], b.ip());
            EXPECT_EQ(slice.target[i], b.target());
            EXPECT_EQ(OpCode(slice.meta[i] & 0x0f), b.opcode());
            EXPECT_EQ((slice.meta[i] & 0x10) != 0, b.isTaken());
            EXPECT_EQ(slice.instr[i], reader.instrNumber());
            EXPECT_EQ(slice.instr[i] - previous_instr - 1, packet.instr_gap);
            EXPECT_EQ(slice.site[i], trace->siteIndex(begin + i));
            previous_instr = slice.instr[i];
        }
        sites += sbbt::countFirstSeen(slice.first_seen, slice.size);
        begin += slice.size;
    }
    EXPECT_FALSE(reader.next(packet));
    EXPECT_EQ(reader.error(), "");
    EXPECT_EQ(begin, trace->size());
    EXPECT_EQ(sites, trace->numSites());
    std::remove(path.c_str());
}

TEST(MemTrace, IndependentCursorsShareOneArena)
{
    const std::string path = writeTrace("mem_share.sbbt", 94, 20'000);
    auto trace = sbbt::MemTrace::load(path);
    ASSERT_NE(trace, nullptr);

    // Several threads walk the same arena concurrently, each with its own
    // position; every walk must see the full identical stream.
    // (This test doubles as the MemTrace workout under MBP_SANITIZE=thread.)
    constexpr int kThreads = 4;
    std::vector<std::uint64_t> checksums(kThreads, 0);
    std::vector<std::thread> threads;
    for (int w = 0; w < kThreads; ++w) {
        threads.emplace_back([&, w] {
            const sbbt::BranchColumns all =
                trace->columns(0, trace->size());
            std::uint64_t sum = 0;
            for (std::size_t i = 0; i < all.size; ++i)
                sum += all.ip[i] + all.instr[i] + (all.meta[i] >> 4);
            checksums[w] = sum;
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_NE(checksums[0], 0u);
    for (int w = 1; w < kThreads; ++w)
        EXPECT_EQ(checksums[w], checksums[0]);
    std::remove(path.c_str());
}

TEST(TraceWindow, HandsOutTheArenaBlockByBlock)
{
    const std::string path = writeTrace("window.sbbt", 96, 120'000);
    auto trace = sbbt::MemTrace::load(path);
    ASSERT_NE(trace, nullptr);
    ASSERT_GT(trace->size(), 3 * 1000u);

    // A reader block of 1000 packets never lines up with the window, so
    // windows are stitched from several reader blocks.
    for (std::size_t reader_block : {std::size_t(1000), std::size_t(4096)}) {
        SCOPED_TRACE(reader_block);
        sbbt::TraceWindow window(path, {.block_packets = reader_block},
                                 4096);
        ASSERT_TRUE(window.reader().ok());
        std::size_t pos = 0;
        std::uint64_t sites = 0;
        for (sbbt::BranchColumns block = window.next(UINT64_MAX);
             block.size > 0; block = window.next(UINT64_MAX)) {
            EXPECT_LE(block.size, 4096u);
            for (std::size_t i = 0; i < block.size; ++i) {
                ASSERT_LT(pos + i, trace->size());
                EXPECT_EQ(block.ip[i], trace->ip(pos + i));
                EXPECT_EQ(block.target[i], trace->target(pos + i));
                EXPECT_EQ(block.instr[i], trace->instrNumber(pos + i));
                EXPECT_EQ(block.meta[i], trace->metaData()[pos + i]);
                EXPECT_EQ(block.site[i], trace->siteIndex(pos + i));
            }
            sites += sbbt::countFirstSeen(block.first_seen, block.size);
            pos += block.size;
        }
        EXPECT_EQ(window.error(), "");
        EXPECT_EQ(pos, trace->size());
        EXPECT_EQ(sites, trace->numSites());
        ASSERT_EQ(window.sites().numSites(), trace->numSites());
        for (std::uint32_t s = 0; s < trace->numSites(); ++s) {
            EXPECT_EQ(window.sites().siteIps()[s], trace->siteIp(s));
            EXPECT_EQ(window.sites().siteCondOccurrences()[s],
                      trace->siteCondOccurrences(s));
        }
        EXPECT_EQ(window.reader().decompressedBytes(),
                  trace->decompressedBytes());
    }
    std::remove(path.c_str());
}

TEST(TraceWindow, StopsReadingAfterTheFirstBranchPastTheLimit)
{
    const std::string path = writeTrace("window_limit.sbbt", 97, 120'000);
    auto trace = sbbt::MemTrace::load(path);
    ASSERT_NE(trace, nullptr);
    ASSERT_GT(trace->size(), 5000u);

    // With 1000-packet reader blocks, the window's first fill takes the
    // reader block holding branch 1500 and stops there: the limit is
    // crossed, so the next reader block is never decoded.
    const std::uint64_t limit = trace->instrNumber(1500);
    sbbt::TraceWindow window(path, {.block_packets = 1000}, 4096);
    const sbbt::BranchColumns block = window.next(limit);
    EXPECT_EQ(block.size, 2000u);
    EXPECT_GT(block.instr[block.size - 1], limit);
    EXPECT_EQ(window.reader().branchesRead(), 2000u);
    std::remove(path.c_str());
}

TEST(TraceWindow, SurfacesAnErrorAfterEveryBranchBeforeIt)
{
    // A raw trace cut mid-packet: every whole packet is handed out, then
    // the window ends with the reader's error.
    const std::string path = writeTrace("window_cut.sbbt", 98, 60'000);
    std::uint64_t branches = 0;
    {
        sbbt::SbbtReader reader(path);
        branches = reader.header().branch_count;
    }
    const std::uint64_t keep = sbbt::kHeaderSize +
                               (branches / 2) * sbbt::kPacketSize + 5;
    std::filesystem::resize_file(path, keep);
    sbbt::TraceWindow window(path, {}, 4096);
    std::uint64_t seen = 0;
    for (sbbt::BranchColumns block = window.next(UINT64_MAX);
         block.size > 0; block = window.next(UINT64_MAX))
        seen += block.size;
    EXPECT_EQ(seen, branches / 2);
    EXPECT_NE(window.error(), "");
    std::remove(path.c_str());
}

TEST(MemTrace, EstimateBytesTracksActualFootprint)
{
    const std::string path = writeTrace("mem_estimate.sbbt", 95, 50'000);
    auto trace = sbbt::MemTrace::load(path);
    ASSERT_NE(trace, nullptr);

    const std::uint64_t estimate =
        sbbt::MemTrace::estimateBytes(trace->header());
    EXPECT_EQ(estimate, trace->header().branch_count *
                                sbbt::MemTrace::kBytesPerBranch +
                            sizeof(sbbt::MemTrace));
    // The estimate is made from the header before decoding, the actual
    // footprint after vectors are populated; they must agree closely
    // enough for budget decisions (within 2x either way).
    EXPECT_GE(trace->memoryBytes(), estimate / 2);
    EXPECT_LE(trace->memoryBytes(), estimate * 2);

    // File-based estimation reads only the header.
    EXPECT_EQ(sbbt::MemTrace::estimateFileBytes(path), estimate);
    EXPECT_EQ(sbbt::MemTrace::estimateFileBytes(
                  mbp::test::tempDir() + "/definitely-missing.sbbt"),
              0u);
    std::remove(path.c_str());
}

TEST(MemTrace, InflatedHeaderCountFailsWithoutSizingAnAllocation)
{
    // A 184-byte trace (header plus ten packets) whose header claims
    // 2^40 branches: sizing the columns from that count used to throw
    // std::bad_alloc out of load(). The file bounds the sizing now, and
    // the short trace fails the load with the reader's error.
    const std::uint64_t claimed = std::uint64_t(1) << 40;
    const std::vector<std::uint8_t> bytes = inflatedTraceBytes(10, claimed);
    ASSERT_EQ(bytes.size(), 184u);
    for (const char *name :
         {"inflated.sbbt", "inflated.sbbt.gz", "inflated.sbbt.flz"}) {
        SCOPED_TRACE(name);
        const std::string path = mbp::test::tempDir() + "/" + name;
        writeThroughCodec(path, bytes);
        std::string error;
        std::shared_ptr<const sbbt::MemTrace> trace;
        EXPECT_NO_THROW(trace = sbbt::MemTrace::load(path, {}, &error));
        EXPECT_EQ(trace, nullptr);
        EXPECT_NE(error.find("trace ended early"), std::string::npos)
            << error;
        EXPECT_NE(error.find(std::to_string(claimed)), std::string::npos)
            << error;
        std::remove(path.c_str());
    }
}

TEST(MemTrace, UnsizedInputGrowsTheColumnsPastTheFirstReserve)
{
    // A FIFO has no size to bound the up-front reserve by, so the load
    // starts from a fixed reserve and doubles the columns as the trace
    // outgrows it. The grown arena must equal the one decoded from the
    // regular file.
    const std::string path = writeTrace("mem_grow.sbbt", 96, 1'200'000);
    std::string error;
    auto expected = sbbt::MemTrace::load(path, {}, &error);
    ASSERT_NE(expected, nullptr) << error;
    ASSERT_GT(expected->size(), std::size_t(1) << 17)
        << "the trace must outgrow the unsized reserve twice";
    // Gzip it, so the FIFO's name selects the codec: sniffing an unknown
    // extension would consume bytes a FIFO cannot rewind.
    const std::string gz = path + ".gz";
    {
        std::ifstream in(path, std::ios::binary);
        const std::vector<std::uint8_t> raw(
            (std::istreambuf_iterator<char>(in)),
            std::istreambuf_iterator<char>());
        writeThroughCodec(gz, raw);
    }
    std::ifstream gz_in(gz, std::ios::binary);
    const std::vector<char> bytes((std::istreambuf_iterator<char>(gz_in)),
                                  std::istreambuf_iterator<char>());

    const std::string fifo = mbp::test::tempDir() + "/mem_grow.fifo.gz";
    ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
    std::thread writer([&] {
        std::ofstream out(fifo, std::ios::binary);
        out.write(bytes.data(), std::streamsize(bytes.size()));
    });
    auto grown = sbbt::MemTrace::load(fifo, {}, &error);
    writer.join();
    ASSERT_NE(grown, nullptr) << error;
    ASSERT_EQ(grown->size(), expected->size());
    EXPECT_EQ(grown->numSites(), expected->numSites());
    EXPECT_EQ(grown->memoryBytes(), expected->memoryBytes());
    for (std::size_t i = 0; i < expected->size(); ++i) {
        ASSERT_EQ(grown->ip(i), expected->ip(i)) << i;
        ASSERT_EQ(grown->target(i), expected->target(i)) << i;
        ASSERT_EQ(grown->instrNumber(i), expected->instrNumber(i)) << i;
        ASSERT_EQ(grown->siteIndex(i), expected->siteIndex(i)) << i;
    }
    EXPECT_EQ(sbbt::countFirstSeen(
                  grown->columns(0, grown->size()).first_seen, grown->size()),
              sbbt::countFirstSeen(
                  expected->columns(0, expected->size()).first_seen,
                  expected->size()));
    std::remove(fifo.c_str());
    std::remove(gz.c_str());
    std::remove(path.c_str());
}
