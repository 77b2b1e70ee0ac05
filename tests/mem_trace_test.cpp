/**
 * @file
 * Unit tests for the decode-once in-memory trace arena: a loaded
 * MemTrace must replay, through MemTraceCursor, the exact packet stream
 * SbbtReader delivers from the same file — same branches, same gaps,
 * same instruction numbers, same exhaustion semantics — plus the sizing
 * helpers the memory-budgeted cache relies on.
 */
#include "mbp/sbbt/mem_trace.hpp"

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
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

    sbbt::SbbtReader reader(path);
    ASSERT_TRUE(reader.ok()) << reader.error();
    sbbt::MemTraceCursor cursor(trace);
    ASSERT_TRUE(cursor.ok());

    sbbt::PacketData from_file, from_arena;
    while (true) {
        const bool file_more = reader.next(from_file);
        const bool arena_more = cursor.next(from_arena);
        ASSERT_EQ(file_more, arena_more);
        if (!file_more)
            break;
        EXPECT_EQ(from_arena.branch, from_file.branch);
        EXPECT_EQ(from_arena.instr_gap, from_file.instr_gap);
        EXPECT_EQ(cursor.instrNumber(), reader.instrNumber());
        EXPECT_EQ(cursor.branchesRead(), reader.branchesRead());
    }
    EXPECT_EQ(reader.error(), "");
    EXPECT_TRUE(reader.exhausted());
    EXPECT_TRUE(cursor.exhausted());
    EXPECT_EQ(cursor.branchesRead(), reader.branchesRead());
    std::remove(path.c_str());
}

TEST(MemTrace, CursorExhaustedOnlyAfterFailingNext)
{
    const std::string path = writeTrace("mem_exhaust.sbbt", 93, 5'000);
    auto trace = sbbt::MemTrace::load(path);
    ASSERT_NE(trace, nullptr);
    ASSERT_GT(trace->size(), 0u);

    // Mirror SbbtReader: consuming the last packet does not flip
    // exhausted(); only the next() that returns false does. This is what
    // lets the simulator's instruction-limit break distinguish "stopped
    // early" from "trace fully consumed" identically on both sources.
    sbbt::MemTraceCursor cursor(trace);
    sbbt::PacketData packet;
    for (std::size_t i = 0; i < trace->size(); ++i) {
        ASSERT_TRUE(cursor.next(packet));
        EXPECT_FALSE(cursor.exhausted());
    }
    EXPECT_FALSE(cursor.next(packet));
    EXPECT_TRUE(cursor.exhausted());
    std::remove(path.c_str());
}

TEST(MemTrace, NullCursorReportsErrorNotExhaustion)
{
    sbbt::MemTraceCursor cursor(nullptr);
    EXPECT_FALSE(cursor.ok());
    EXPECT_NE(cursor.error(), "");
    sbbt::PacketData packet;
    EXPECT_FALSE(cursor.next(packet));
    EXPECT_FALSE(cursor.exhausted()); // an error is not a clean end
    EXPECT_EQ(cursor.decompressedBytes(), 0u);
}

TEST(MemTrace, IndependentCursorsShareOneArena)
{
    const std::string path = writeTrace("mem_share.sbbt", 94, 20'000);
    auto trace = sbbt::MemTrace::load(path);
    ASSERT_NE(trace, nullptr);

    // Several threads replay the same arena concurrently, each through
    // its own cursor; every replay must see the full identical stream.
    // (This test doubles as the MemTrace workout under MBP_SANITIZE=thread.)
    constexpr int kThreads = 4;
    std::vector<std::uint64_t> checksums(kThreads, 0);
    std::vector<std::thread> threads;
    for (int w = 0; w < kThreads; ++w) {
        threads.emplace_back([&, w] {
            sbbt::MemTraceCursor cursor(trace);
            sbbt::PacketData packet;
            std::uint64_t sum = 0;
            while (cursor.next(packet))
                sum += packet.branch.ip() + packet.instr_gap +
                       (packet.branch.isTaken() ? 1 : 0);
            checksums[w] = cursor.exhausted() ? sum : 0;
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_NE(checksums[0], 0u);
    for (int w = 1; w < kThreads; ++w)
        EXPECT_EQ(checksums[w], checksums[0]);
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
    EXPECT_EQ(grown->staticSitesInPrefix(grown->size()),
              expected->staticSitesInPrefix(expected->size()));
    std::remove(fifo.c_str());
    std::remove(gz.c_str());
    std::remove(path.c_str());
}
