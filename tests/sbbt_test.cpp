/**
 * @file
 * Tests for the SBBT trace format: bit-exact layout per paper Figs. 1-2,
 * validity rules, reader/writer round trips across codecs.
 */
#include "mbp/sbbt/format.hpp"
#include "mbp/sbbt/reader.hpp"
#include "mbp/sbbt/writer.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <random>

#include "test_tmp.hpp"

using namespace mbp;
using namespace mbp::sbbt;

namespace
{

std::string
tempPath(const std::string &name)
{
    return mbp::test::tempDir() + "/" + name;
}

Branch
condBranch(std::uint64_t ip, std::uint64_t target, bool taken)
{
    return Branch{ip, taken ? target : ip + 4, OpCode::condJump(), taken};
}

std::vector<PacketData>
randomPackets(std::size_t count, unsigned seed)
{
    std::mt19937_64 rng(seed);
    std::vector<PacketData> packets;
    packets.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        std::uint64_t ip = (rng() % (1ull << 47)) & ~3ull;
        std::uint64_t target = (rng() % (1ull << 47)) & ~3ull;
        std::uint32_t gap = static_cast<std::uint32_t>(rng() % 16);
        switch (rng() % 6) {
          case 0:
            packets.push_back({Branch{ip, target, OpCode::jump(), true}, gap});
            break;
          case 1:
            packets.push_back(
                {Branch{ip, target, OpCode::condJump(), (rng() & 1) != 0},
                 gap});
            break;
          case 2:
            packets.push_back(
                {Branch{ip, target, OpCode::call(), true}, gap});
            break;
          case 3:
            packets.push_back({Branch{ip, target, OpCode::ret(), true}, gap});
            break;
          case 4:
            packets.push_back(
                {Branch{ip, target, OpCode::indJump(), true}, gap});
            break;
          default: {
            bool taken = (rng() & 1) != 0;
            packets.push_back(
                {Branch{ip, taken ? target : 0,
                        OpCode(BranchType::kJump, true, true), taken},
                 gap});
            break;
          }
        }
    }
    return packets;
}

/** Writes @p packets to @p path, with upfront counts when compressed. */
std::uint64_t
writeTraceFile(const std::string &path,
               const std::vector<PacketData> &packets)
{
    std::uint64_t instr = 0;
    for (const auto &p : packets)
        instr += p.instr_gap + 1;
    std::optional<Header> expected;
    if (compress::codecFromPath(path) != compress::Codec::kRaw) {
        Header h;
        h.instruction_count = instr;
        h.branch_count = packets.size();
        expected = h;
    }
    SbbtWriter writer(path, expected);
    EXPECT_TRUE(writer.ok()) << writer.error();
    for (const auto &p : packets)
        EXPECT_TRUE(writer.append(p.branch, p.instr_gap));
    EXPECT_TRUE(writer.close()) << writer.error();
    return instr;
}

} // namespace

TEST(SbbtHeader, ByteExactLayout)
{
    Header h;
    h.instruction_count = 0x0102030405060708ull;
    h.branch_count = 0x1112131415161718ull;
    auto bytes = encodeHeader(h);
    ASSERT_EQ(bytes.size(), 24u);
    // Signature "SBBT\n".
    EXPECT_EQ(bytes[0], 'S');
    EXPECT_EQ(bytes[1], 'B');
    EXPECT_EQ(bytes[2], 'B');
    EXPECT_EQ(bytes[3], 'T');
    EXPECT_EQ(bytes[4], '\n');
    // Version 1.0.0.
    EXPECT_EQ(bytes[5], 1);
    EXPECT_EQ(bytes[6], 0);
    EXPECT_EQ(bytes[7], 0);
    // Little-endian u64 counters.
    EXPECT_EQ(bytes[8], 0x08);
    EXPECT_EQ(bytes[15], 0x01);
    EXPECT_EQ(bytes[16], 0x18);
    EXPECT_EQ(bytes[23], 0x11);
}

TEST(SbbtHeader, RoundTrip)
{
    Header h;
    h.instruction_count = 1283944652;
    h.branch_count = 162876464;
    auto bytes = encodeHeader(h);
    Header back;
    ASSERT_TRUE(decodeHeader(bytes.data(), back));
    EXPECT_EQ(back.instruction_count, h.instruction_count);
    EXPECT_EQ(back.branch_count, h.branch_count);
    EXPECT_EQ(back.major, 1);
}

TEST(SbbtHeader, RejectsBadSignature)
{
    auto bytes = encodeHeader(Header{});
    bytes[0] = 'X';
    Header back;
    std::string err;
    EXPECT_FALSE(decodeHeader(bytes.data(), back, &err));
    EXPECT_NE(err.find("signature"), std::string::npos);
}

TEST(SbbtHeader, RejectsFutureMajorVersion)
{
    auto bytes = encodeHeader(Header{});
    bytes[5] = 2;
    Header back;
    std::string err;
    EXPECT_FALSE(decodeHeader(bytes.data(), back, &err));
    EXPECT_NE(err.find("version"), std::string::npos);
}

TEST(SbbtPacket, BitExactLayout)
{
    // Conditional taken jump at 0x400123000, target 0x400456000, gap 7.
    Branch b{0x400123000ull, 0x400456000ull, OpCode::condJump(), true};
    auto bytes = encodePacket({b, 7});
    std::uint64_t block1 = 0, block2 = 0;
    for (int i = 0; i < 8; ++i) {
        block1 |= std::uint64_t(bytes[i]) << (8 * i);
        block2 |= std::uint64_t(bytes[8 + i]) << (8 * i);
    }
    EXPECT_EQ(block1 & 0xf, 0b0001u) << "opcode: conditional direct jump";
    EXPECT_EQ((block1 >> 4) & 0x7f, 0u) << "reserved bits must be zero";
    EXPECT_EQ((block1 >> 11) & 1, 1u) << "outcome bit";
    EXPECT_EQ(block1 >> 12, 0x400123000ull) << "IP in top 52 bits";
    EXPECT_EQ(block2 & 0xfff, 7u) << "instruction gap in low 12 bits";
    EXPECT_EQ(block2 >> 12, 0x400456000ull) << "target in top 52 bits";
}

TEST(SbbtPacket, OpcodeEncodings)
{
    EXPECT_EQ(OpCode::jump().bits(), 0b0000);
    EXPECT_EQ(OpCode::condJump().bits(), 0b0001);
    EXPECT_EQ(OpCode::indJump().bits(), 0b0010);
    EXPECT_EQ(OpCode::ret().bits(), 0b0110) << "RET = base 01, indirect";
    EXPECT_EQ(OpCode::call().bits(), 0b1000) << "CALL = base 10";
    EXPECT_EQ(OpCode::indCall().bits(), 0b1010);
    EXPECT_TRUE(OpCode::ret().isRet());
    EXPECT_TRUE(OpCode::call().isCall());
    EXPECT_FALSE(OpCode(0b1100).valid()) << "base type 11 undefined";
}

TEST(SbbtPacket, HighCanonicalAddressRoundTrips)
{
    // Kernel-space style address: top bits all ones (sign extension).
    std::uint64_t ip = 0xffffffff81000000ull;
    ASSERT_TRUE(addressIsCanonical(ip));
    Branch b{ip, ip + 64, OpCode::condJump(), true};
    auto bytes = encodePacket({b, 3});
    PacketData out;
    ASSERT_TRUE(decodePacket(bytes.data(), out));
    EXPECT_EQ(out.branch.ip(), ip);
    EXPECT_EQ(out.branch.target(), ip + 64);
}

TEST(SbbtPacket, NonCanonicalAddressDetected)
{
    EXPECT_FALSE(addressIsCanonical(0x8000000000000ull)); // bit 51 set only
    EXPECT_TRUE(addressIsCanonical(0x7ffffffffffffull));
    EXPECT_TRUE(addressIsCanonical(0xfff8000000000000ull));
}

TEST(SbbtPacket, MaxGapRoundTrips)
{
    Branch b = condBranch(0x1000, 0x2000, true);
    auto bytes = encodePacket({b, kMaxInstrGap});
    PacketData out;
    ASSERT_TRUE(decodePacket(bytes.data(), out));
    EXPECT_EQ(out.instr_gap, kMaxInstrGap);
}

TEST(SbbtValidity, UnconditionalMustBeTaken)
{
    Branch bad{0x1000, 0x2000, OpCode::jump(), false};
    EXPECT_FALSE(branchIsValid(bad));
    Branch good{0x1000, 0x2000, OpCode::jump(), true};
    EXPECT_TRUE(branchIsValid(good));
}

TEST(SbbtValidity, CondIndirectNotTakenNeedsNullTarget)
{
    OpCode cond_ind(BranchType::kJump, true, true);
    EXPECT_FALSE(branchIsValid(Branch{0x1000, 0x2000, cond_ind, false}));
    EXPECT_TRUE(branchIsValid(Branch{0x1000, 0, cond_ind, false}));
    EXPECT_TRUE(branchIsValid(Branch{0x1000, 0x2000, cond_ind, true}));
}

TEST(SbbtValidity, DecodeRejectsInvalidPackets)
{
    // Craft raw block with unconditional not-taken: opcode 0, outcome 0.
    std::uint8_t bytes[16] = {};
    bytes[1] = 0x10; // some IP bits so it is not all zero
    PacketData out;
    std::string err;
    EXPECT_FALSE(decodePacket(bytes, out, &err));
    EXPECT_FALSE(err.empty());
}

TEST(SbbtPacket, PropertyRoundTrip)
{
    auto packets = randomPackets(5000, 1234);
    for (const auto &p : packets) {
        auto bytes = encodePacket(p);
        PacketData out;
        ASSERT_TRUE(decodePacket(bytes.data(), out));
        EXPECT_EQ(out.branch, p.branch);
        EXPECT_EQ(out.instr_gap, p.instr_gap);
    }
}

class SbbtFileRoundTrip : public testing::TestWithParam<const char *>
{};

TEST_P(SbbtFileRoundTrip, WriteReadBack)
{
    std::string path = tempPath(std::string("trace_") + GetParam());
    auto packets = randomPackets(20000, 77);
    std::uint64_t instr = 0;
    for (const auto &p : packets)
        instr += p.instr_gap + 1;

    bool compressed = compress::codecFromPath(path) != compress::Codec::kRaw;
    {
        std::optional<Header> expected;
        if (compressed) {
            Header h;
            h.instruction_count = instr;
            h.branch_count = packets.size();
            expected = h;
        }
        SbbtWriter writer(path, expected);
        ASSERT_TRUE(writer.ok()) << writer.error();
        for (const auto &p : packets)
            ASSERT_TRUE(writer.append(p.branch, p.instr_gap));
        ASSERT_TRUE(writer.close()) << writer.error();
        EXPECT_EQ(writer.instructionCount(), instr);
        EXPECT_EQ(writer.branchCount(), packets.size());
    }

    SbbtReader reader(path);
    ASSERT_TRUE(reader.ok()) << reader.error();
    EXPECT_EQ(reader.header().instruction_count, instr);
    EXPECT_EQ(reader.header().branch_count, packets.size());
    PacketData p;
    std::size_t i = 0;
    std::uint64_t running = 0;
    while (reader.next(p)) {
        ASSERT_LT(i, packets.size());
        EXPECT_EQ(p.branch, packets[i].branch);
        EXPECT_EQ(p.instr_gap, packets[i].instr_gap);
        running += p.instr_gap + 1;
        EXPECT_EQ(reader.instrNumber(), running);
        ++i;
    }
    EXPECT_EQ(i, packets.size());
    EXPECT_TRUE(reader.exhausted()) << reader.error();
    std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Codecs, SbbtFileRoundTrip,
                         testing::Values("raw.sbbt", "gz.sbbt.gz",
                                         "flz.sbbt.flz"));

TEST(SbbtWriter, PatchesHeaderForRawFiles)
{
    std::string path = tempPath("patched.sbbt");
    {
        SbbtWriter writer(path); // counts unknown up front
        ASSERT_TRUE(writer.ok()) << writer.error();
        ASSERT_TRUE(writer.append(condBranch(0x1000, 0x2000, true), 9));
        ASSERT_TRUE(writer.append(condBranch(0x1004, 0x2000, false), 0));
        ASSERT_TRUE(writer.close()) << writer.error();
    }
    SbbtReader reader(path);
    ASSERT_TRUE(reader.ok());
    EXPECT_EQ(reader.header().instruction_count, 11u);
    EXPECT_EQ(reader.header().branch_count, 2u);
    std::remove(path.c_str());
}

TEST(SbbtWriter, CompressedRequiresUpfrontCounts)
{
    SbbtWriter writer(tempPath("nocounts.sbbt.flz"));
    EXPECT_FALSE(writer.ok());
    EXPECT_NE(writer.error().find("up front"), std::string::npos);
}

TEST(SbbtWriter, DetectsCountMismatch)
{
    std::string path = tempPath("mismatch.sbbt.flz");
    Header promised;
    promised.instruction_count = 100;
    promised.branch_count = 5;
    SbbtWriter writer(path, promised);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.append(condBranch(0x1000, 0x2000, true), 1));
    EXPECT_FALSE(writer.close());
    EXPECT_NE(writer.error().find("mismatch"), std::string::npos);
    std::remove(path.c_str());
}

TEST(SbbtWriter, RejectsOversizedGap)
{
    std::string path = tempPath("gap.sbbt");
    SbbtWriter writer(path);
    ASSERT_TRUE(writer.ok());
    EXPECT_FALSE(writer.append(condBranch(0x1000, 0x2000, true), 4096));
    std::remove(path.c_str());
}

TEST(SbbtWriter, RejectsInvalidBranch)
{
    std::string path = tempPath("invalid.sbbt");
    SbbtWriter writer(path);
    ASSERT_TRUE(writer.ok());
    EXPECT_FALSE(writer.append(Branch{0x1000, 0x2000, OpCode::jump(), false},
                               0));
    std::remove(path.c_str());
}

TEST(SbbtReader, MissingFile)
{
    SbbtReader reader("/nonexistent/missing.sbbt");
    EXPECT_FALSE(reader.ok());
    PacketData p;
    EXPECT_FALSE(reader.next(p));
}

TEST(SbbtReader, BlockedReadersMatchSeedPacketPath)
{
    // The block-decoded reader (any block size, prefetch on or off) must
    // deliver exactly the packet sequence of the seed packet-at-a-time
    // path, including instrNumber() after every packet.
    std::string path = tempPath("blocked.sbbt.flz");
    auto packets = randomPackets(30000, 321);
    writeTraceFile(path, packets);

    auto readAll = [&](const ReaderOptions &options) {
        SbbtReader reader(path, options);
        EXPECT_TRUE(reader.ok()) << reader.error();
        std::vector<PacketData> got;
        std::vector<std::uint64_t> instr;
        PacketData p;
        while (reader.next(p)) {
            got.push_back(p);
            instr.push_back(reader.instrNumber());
        }
        EXPECT_TRUE(reader.exhausted()) << reader.error();
        return std::pair(got, instr);
    };

    ReaderOptions seed;
    seed.block_packets = 1;
    seed.prefetch = false;
    auto [seed_pkts, seed_instr] = readAll(seed);
    ASSERT_EQ(seed_pkts.size(), packets.size());

    for (auto [block, prefetch] :
         {std::pair<std::size_t, bool>{3, false}, {4096, false},
          {4096, true}}) {
        ReaderOptions options;
        options.block_packets = block;
        options.prefetch = prefetch;
        auto [pkts, instr] = readAll(options);
        ASSERT_EQ(pkts.size(), seed_pkts.size())
            << "block " << block << " prefetch " << prefetch;
        for (std::size_t i = 0; i < pkts.size(); ++i) {
            ASSERT_EQ(pkts[i].branch, seed_pkts[i].branch) << i;
            ASSERT_EQ(pkts[i].instr_gap, seed_pkts[i].instr_gap) << i;
        }
        EXPECT_EQ(instr, seed_instr);
    }
    std::remove(path.c_str());
}

class SbbtTruncatedFile : public testing::TestWithParam<const char *>
{};

TEST_P(SbbtTruncatedFile, ReportsErrorAtSeveralCutPoints)
{
    // Cutting the file mid-stream — early, midway, and inside the codec's
    // end-of-stream marker — must surface a reader error on every codec,
    // with and without the prefetch thread in the pipeline.
    std::string path = tempPath(std::string("cut_") + GetParam());
    auto packets = randomPackets(8000, 99);
    writeTraceFile(path, packets);
    const std::uintmax_t full_size = std::filesystem::file_size(path);
    ASSERT_GT(full_size, 200u);

    std::vector<std::uintmax_t> cuts = {full_size / 4, full_size / 2,
                                        full_size - 5, full_size - 1};
    if (compress::codecFromPath(path) == compress::Codec::kRaw)
        cuts.push_back(kHeaderSize + 4000 * kPacketSize); // packet boundary
    for (std::uintmax_t cut : cuts) {
        for (bool prefetch : {false, true}) {
            writeTraceFile(path, packets); // restore, then cut
            std::filesystem::resize_file(path, cut);
            ReaderOptions options;
            options.prefetch = prefetch;
            // A cut early in a compressed file can already fail header
            // decode in the constructor — that is a valid loud failure,
            // so ok() is not asserted here.
            SbbtReader reader(path, options);
            PacketData p;
            std::size_t got = 0;
            while (reader.next(p))
                ++got;
            EXPECT_LE(got, packets.size());
            EXPECT_FALSE(reader.exhausted())
                << "cut at " << cut << " of " << full_size
                << " prefetch " << prefetch;
            EXPECT_FALSE(reader.error().empty())
                << "cut at " << cut << " prefetch " << prefetch;
        }
    }
    std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Codecs, SbbtTruncatedFile,
                         testing::Values("raw.sbbt", "gz.sbbt.gz",
                                         "flz.sbbt.flz"));

TEST(SbbtReader, TruncatedTraceReported)
{
    std::string path = tempPath("trunc.sbbt");
    {
        Header h;
        h.instruction_count = 100;
        h.branch_count = 10; // promises more than we write
        SbbtWriter writer(path, h);
        ASSERT_TRUE(writer.ok());
        ASSERT_TRUE(writer.append(condBranch(0x1000, 0x2000, true), 9));
        writer.close(); // reports the count mismatch; file is short
    }
    SbbtReader reader(path);
    ASSERT_TRUE(reader.ok());
    PacketData p;
    EXPECT_TRUE(reader.next(p));
    EXPECT_FALSE(reader.next(p));
    EXPECT_FALSE(reader.exhausted());
    EXPECT_NE(reader.error().find("ended early"), std::string::npos);
    std::remove(path.c_str());
}
