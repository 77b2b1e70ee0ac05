/**
 * @file
 * Unit tests for the decoded-column traces: a loaded MemTrace, walked
 * through its column slices, must replay the exact packet stream
 * SbbtReader delivers from the same file — same branches, same gaps,
 * same instruction numbers — and a TraceWindow must hand out the same
 * columns, site ids and site tables block by block; both must match a
 * packet-at-a-time reference decode (decode_check.hpp) on real, wide,
 * stress and memo-colliding traces, and report each planted fault with
 * the reference's error after exactly the rows before it; plus the
 * sizing helpers the memory-budgeted cache relies on.
 */
#include "mbp/sbbt/mem_trace.hpp"

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "decode_check.hpp"
#include "mbp/compress/flz.hpp"
#include "mbp/compress/streams.hpp"
#include "mbp/sbbt/reader.hpp"
#include "mbp/sbbt/writer.hpp"
#include "mbp/tracegen/adversarial.hpp"
#include "mbp/tools/corpus.hpp"
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

/** Writes @p events as an SBBT trace (codec from the extension). */
std::string
writeEvents(const std::vector<tracegen::TraceEvent> &events,
            const std::string &name)
{
    const std::string path = mbp::test::tempDir() + "/" + name;
    // A compressed trace needs its header counts up front.
    sbbt::SbbtWriter writer(
        path, sbbt::Header{.instruction_count =
                               tracegen::streamInstructions(events),
                           .branch_count = events.size()});
    for (const tracegen::TraceEvent &ev : events)
        EXPECT_TRUE(writer.append(ev.branch, ev.instr_gap)) << writer.error();
    EXPECT_TRUE(writer.close()) << writer.error();
    return path;
}

/** The whole bytes of the file at @p path. */
std::vector<std::uint8_t>
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
writeBytes(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              std::streamsize(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
}

/**
 * Checks that the whole trace at @p path decodes cleanly and that
 * MemTrace::load and TraceWindow, at every capacity and reader block
 * that straddles a 64-row word or a window edge, match the reference.
 */
void
expectDecodesAgree(const std::string &path)
{
    SCOPED_TRACE(path);
    const test::DecodedTrace want = test::decodeByPackets(path);
    ASSERT_EQ(want.error, "");
    ASSERT_GT(want.size(), 0u);
    for (std::size_t block : {std::size_t(1), std::size_t(7),
                              sbbt::kDefaultBlockPackets})
        EXPECT_EQ(test::diffArena(want, path, block), "")
            << "reader block " << block;
    for (std::size_t capacity : {1, 63, 64, 65, 4097})
        for (std::size_t block : {std::size_t(1), std::size_t(7),
                                  sbbt::kDefaultBlockPackets})
            EXPECT_EQ(test::diffWindow(want, path, capacity, block), "")
                << "capacity " << capacity << ", reader block " << block;
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

// ---------------------------------------------------------------------------
// One-pass decode against the packet-at-a-time reference

TEST(DecodeEquivalence, CorpusTrace)
{
    // The corpus's demo trace (materialized on demand, flock-guarded,
    // with the spec the examples and the golden files use): 3.1 M
    // branches of a synthetic program in 8 MiB FLZ blocks.
    tracegen::WorkloadSpec spec;
    spec.name = "example-demo";
    spec.seed = 7;
    spec.num_instr = 20'000'000;
    tools::CorpusFormats formats;
    formats.sbbt_flz = true;
    const auto entries = tools::materialize(MBP_CORPUS_DIR, {spec}, formats);
    ASSERT_EQ(entries.size(), 1u);
    expectDecodesAgree(entries[0].sbbt_flz);
}

TEST(DecodeEquivalence, WideTraceOutgrowsTheSiteMemo)
{
    // 20000 sites, far more than the memo's 1024 entries and the 16 k
    // slots the site map starts from, visited three times in shuffled
    // order; half the sites sit at negative canonical addresses, so
    // the sign extension of both address fields takes part.
    constexpr std::size_t kSites = 20000;
    std::vector<std::uint32_t> order(kSites);
    for (std::uint32_t s = 0; s < kSites; ++s)
        order[s] = s;
    std::mt19937_64 rng(4242);
    std::vector<tracegen::TraceEvent> events;
    const OpCode kinds[] = {OpCode::condJump(), OpCode::jump(),
                            OpCode::call(),     OpCode::ret(),
                            OpCode::indJump(),  OpCode::indCall()};
    for (int pass = 0; pass < 3; ++pass) {
        std::shuffle(order.begin(), order.end(), rng);
        for (std::uint32_t s : order) {
            const std::uint64_t base = (s % 2 == 0)
                                           ? std::uint64_t(0x400000)
                                           : std::uint64_t(0xfff8000000000000);
            const std::uint64_t ip = base + 4 * std::uint64_t(s);
            const OpCode op = kinds[s % 6];
            const bool taken = !op.isConditional() || (rng() & 1) != 0;
            events.push_back({Branch{ip, ip + 0x40 * (pass + 1), op, taken},
                              static_cast<std::uint32_t>(rng() % 40)});
        }
    }
    const std::string path = writeEvents(events, "wide.sbbt.flz");
    ASSERT_EQ(test::decodeByPackets(path).site_ips.size(), kSites);
    expectDecodesAgree(path);
}

TEST(DecodeEquivalence, StressTraces)
{
    // The front-end stress streams `mbp_tracegen stress` renders, plus
    // an aliasing storm.
    expectDecodesAgree(writeEvents(tracegen::indirectStorm(5, 30000, 8, 31),
                                   "stress-indirect.sbbt"));
    expectDecodesAgree(writeEvents(tracegen::megamorphicSites(5, 30000, 40),
                                   "stress-megamorphic.sbbt"));
    expectDecodesAgree(writeEvents(tracegen::deepRecursion(5, 30000, 70),
                                   "stress-recursion.sbbt.flz"));
    expectDecodesAgree(writeEvents(tracegen::aliasingStorm(5, 30000, 64),
                                   "stress-aliasing.sbbt"));
}

TEST(DecodeEquivalence, SitesThatShareAMemoEntryInterleave)
{
    // Eight sites 2^20 bytes apart share one memo entry, so nearly every
    // row evicts the site the next row needs; interleaved with a few
    // sites of their own entries.
    std::vector<std::uint64_t> ips;
    for (std::uint64_t k = 0; k < 8; ++k)
        ips.push_back(0x7f0000001234 + (k << 20));
    for (std::uint64_t ip : ips)
        ASSERT_EQ(sbbt::SiteDecoder::memoIndex(ip),
                  sbbt::SiteDecoder::memoIndex(ips[0]));
    ips.push_back(0x400000);
    ips.push_back(0x400010);
    std::mt19937_64 rng(77);
    std::vector<tracegen::TraceEvent> events;
    for (std::size_t i = 0; i < 20000; ++i) {
        const std::size_t pick = (i % 3 == 0) ? rng() % ips.size() : i % 8;
        const bool taken = (rng() & 3) != 0;
        events.push_back(
            {Branch{ips[pick], ips[pick] + 0x100, OpCode::condJump(), taken},
             static_cast<std::uint32_t>(i % 5)});
    }
    const std::string path = writeEvents(events, "memo-collide.sbbt");
    const test::DecodedTrace want = test::decodeByPackets(path);
    ASSERT_EQ(want.site_ips.size(), ips.size());
    expectDecodesAgree(path);
}

// ---------------------------------------------------------------------------
// Faults: the reference's error, after exactly the rows before the fault

namespace
{

/** One way to break a trace at a row. */
enum class Fault
{
    kUndefinedOpcode,
    kRule1,
    kRule2,
    kRaggedTail,
    kOverstatedHeader,
    kCorruptFlzBlock,
    kCorruptFlzSequence,
};

/**
 * @p raw (a whole raw SBBT trace) with @p fault planted at packet
 * @p row, as the bytes of the file to write.
 */
std::vector<std::uint8_t>
plantFault(std::vector<std::uint8_t> raw, Fault fault, std::size_t row)
{
    const std::size_t at = sbbt::kHeaderSize + row * sbbt::kPacketSize;
    std::uint8_t *packet = raw.data() + at;
    switch (fault) {
    case Fault::kUndefinedOpcode: // base type 0b11
        packet[0] = static_cast<std::uint8_t>((packet[0] & 0xf0) | 0x0c);
        break;
    case Fault::kRule1: // an unconditional jump that is not taken
        packet[0] &= 0xf0;
        packet[1] &= static_cast<std::uint8_t>(~0x08);
        break;
    case Fault::kRule2: // a not-taken conditional indirect, target != 0
        packet[0] = static_cast<std::uint8_t>((packet[0] & 0xf0) | 0x03);
        packet[1] &= static_cast<std::uint8_t>(~0x08);
        packet[9] |= 0x10;
        break;
    case Fault::kRaggedTail:
        raw.resize(at + 5);
        break;
    case Fault::kOverstatedHeader:
        raw.resize(at);
        break;
    case Fault::kCorruptFlzBlock:
    case Fault::kCorruptFlzSequence: {
        // A frame of two blocks split at the row: the header and the rows
        // before it stored, the rest compressed and corrupt.
        const bool wide = fault == Fault::kCorruptFlzSequence;
        const char *magic = wide ? compress::kFlz2Magic : compress::kFlzMagic;
        std::vector<std::uint8_t> frame(magic, magic + 4);
        const auto put32 = [&frame](std::size_t v) {
            for (int i = 0; i < 4; ++i)
                frame.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
        };
        put32(at);
        put32(0);
        frame.insert(frame.end(), raw.begin(), raw.begin() + at);
        const std::size_t rest = raw.size() - at;
        std::vector<std::uint8_t> comp;
        if (!wide) {
            // FLZ1, under a raw size one packet too large, so that block
            // fails to decode.
            comp = compress::flzCompress(raw.data() + at, rest);
            put32(rest + sbbt::kPacketSize);
        } else {
            // FLZ2, except that the sequence ending at the middle of the
            // block gains a match whose offset reaches one byte before
            // the block. The block's first rows decode cleanly; only a
            // check of the whole block fails. The first half's final
            // literal-only sequence, followed by an offset, becomes a
            // 4-byte match (its token's match nibble is 0).
            const std::size_t half = rest / 2;
            comp.resize(compress::flzCompressBound(half) + 3 +
                        compress::flzCompressBound(rest - half - 4));
            std::size_t n = compress::flzCompressBlock(
                raw.data() + at, half, comp.data(), 4, true);
            for (int i = 0; i < 3; ++i)
                comp[n++] = static_cast<std::uint8_t>((half + 1) >> (8 * i));
            n += compress::flzCompressBlock(raw.data() + at + half + 4,
                                            rest - half - 4, comp.data() + n,
                                            4, true);
            comp.resize(n);
            put32(rest);
        }
        put32(comp.size());
        frame.insert(frame.end(), comp.begin(), comp.end());
        put32(0);
        put32(0);
        return frame;
    }
    }
    return raw;
}

} // namespace

TEST(DecodeErrors, EachFaultSurfacesAfterExactlyTheRowsBeforeIt)
{
    const std::size_t kBranches = 5000;
    const std::string clean = writeEvents(
        tracegen::indirectStorm(9, kBranches, 8, 31), "fault_base.sbbt");
    const std::vector<std::uint8_t> raw = fileBytes(clean);
    ASSERT_EQ(raw.size(), sbbt::kHeaderSize + kBranches * sbbt::kPacketSize);

    const struct
    {
        Fault fault;
        const char *name;
        std::string error; // "" = the early-end message, which names the row
    } faults[] = {
        {Fault::kUndefinedOpcode, "opcode", "undefined opcode base type 0b11"},
        {Fault::kRule1, "rule1", "packet violates SBBT validity rules"},
        {Fault::kRule2, "rule2", "packet violates SBBT validity rules"},
        {Fault::kRaggedTail, "ragged", "truncated SBBT packet"},
        {Fault::kOverstatedHeader, "overstated", ""},
        {Fault::kCorruptFlzBlock, "flz", "corrupt compressed stream"},
        {Fault::kCorruptFlzSequence, "flz-sequence",
         "corrupt compressed stream"},
    };
    for (const auto &f : faults) {
        for (std::size_t row : {std::size_t(0), std::size_t(1),
                                std::size_t(4095), std::size_t(4096),
                                kBranches - 1}) {
            SCOPED_TRACE(std::string(f.name) + " at row " +
                         std::to_string(row));
            const std::string path =
                mbp::test::tempDir() + "/fault_" + f.name +
                (f.fault == Fault::kCorruptFlzBlock ||
                         f.fault == Fault::kCorruptFlzSequence
                     ? ".sbbt.flz"
                     : ".sbbt");
            writeBytes(path, plantFault(raw, f.fault, row));

            const test::DecodedTrace want = test::decodeByPackets(path);
            EXPECT_EQ(want.size(), row);
            EXPECT_EQ(want.error,
                      f.error.empty()
                          ? "trace ended early: header promises " +
                                std::to_string(kBranches) + " branches, got " +
                                std::to_string(row)
                          : f.error);
            EXPECT_EQ(test::diffArena(want, path, sbbt::kDefaultBlockPackets),
                      "");
            for (std::size_t capacity : {1, 63, 4096})
                for (std::size_t block :
                     {std::size_t(7), sbbt::kDefaultBlockPackets})
                    EXPECT_EQ(test::diffWindow(want, path, capacity, block),
                              "")
                        << "capacity " << capacity << ", reader block "
                        << block;
        }
    }
}
