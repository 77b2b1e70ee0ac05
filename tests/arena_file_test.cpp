/**
 * @file
 * Tests for the SBBT-A zero-decode tier (mbp/sbbt/arena_file.hpp):
 * the content hasher, the on-disk header codec, MemTrace round-trips
 * through writeArena()/mapFile(), the rejection of corrupt / truncated /
 * version-bumped sidecars, and the content-addressed ArenaStore
 * (materialize-once, map-later, graceful fallback, concurrent hammer).
 */
#include "mbp/sbbt/arena_file.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>
#include <vector>

#include "mbp/sbbt/arena_store.hpp"
#include "mbp/sbbt/mem_trace.hpp"
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

std::vector<std::uint8_t>
readFileBytes(const std::string &path)
{
    std::vector<std::uint8_t> bytes;
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (file == nullptr)
        return bytes;
    std::fseek(file, 0, SEEK_END);
    bytes.resize(std::size_t(std::ftell(file)));
    std::fseek(file, 0, SEEK_SET);
    if (!bytes.empty()) {
        if (std::fread(bytes.data(), 1, bytes.size(), file) !=
            bytes.size())
            bytes.clear();
    }
    std::fclose(file);
    return bytes;
}

void
writeFileBytes(const std::string &path,
               const std::vector<std::uint8_t> &bytes)
{
    std::FILE *file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    if (!bytes.empty()) {
        ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), file),
                  bytes.size());
    }
    std::fclose(file);
}

/** Asserts that @p a and @p b expose identical columns and header. */
void
expectSameArena(const sbbt::MemTrace &a, const sbbt::MemTrace &b)
{
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.numSites(), b.numSites());
    EXPECT_EQ(a.header().instruction_count, b.header().instruction_count);
    EXPECT_EQ(a.header().branch_count, b.header().branch_count);
    const std::size_t n = a.size();
    EXPECT_EQ(std::memcmp(a.ipData(), b.ipData(), n * 8), 0);
    EXPECT_EQ(std::memcmp(a.targetData(), b.targetData(), n * 8), 0);
    EXPECT_EQ(std::memcmp(a.instrNumData(), b.instrNumData(), n * 8), 0);
    EXPECT_EQ(std::memcmp(a.metaData(), b.metaData(), n), 0);
    EXPECT_EQ(std::memcmp(a.siteIndexData(), b.siteIndexData(), n * 4), 0);
    EXPECT_EQ(std::memcmp(a.siteIpData(), b.siteIpData(),
                          a.numSites() * 8),
              0);
    EXPECT_EQ(std::memcmp(a.siteCondOccData(), b.siteCondOccData(),
                          a.numSites() * 8),
              0);
    // The first-seen bitmap, counted at a few cut points.
    for (std::size_t cut : {std::size_t(0), n / 2, n})
        EXPECT_EQ(sbbt::countFirstSeen(a.columns(0, n).first_seen, cut),
                  sbbt::countFirstSeen(b.columns(0, n).first_seen, cut))
            << cut;
}

} // namespace

TEST(ContentHasher, ChunkingDoesNotChangeTheDigest)
{
    std::vector<std::uint8_t> data(1031);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = std::uint8_t(i * 131 + 7);

    const std::uint64_t one_shot =
        sbbt::contentHash64(data.data(), data.size());
    sbbt::ContentHasher chunked;
    std::size_t pos = 0;
    for (std::size_t step : {1u, 7u, 31u, 32u, 33u, 64u, 257u}) {
        if (pos >= data.size())
            break;
        const std::size_t take = std::min(step, data.size() - pos);
        chunked.update(data.data() + pos, take);
        pos += take;
    }
    chunked.update(data.data() + pos, data.size() - pos);
    EXPECT_EQ(chunked.digest(), one_shot);
}

TEST(ContentHasher, LengthAndContentBothMatter)
{
    const std::uint8_t zeros[64] = {};
    const std::uint64_t empty = sbbt::contentHash64(zeros, 0);
    const std::uint64_t z31 = sbbt::contentHash64(zeros, 31);
    const std::uint64_t z32 = sbbt::contentHash64(zeros, 32);
    const std::uint64_t z64 = sbbt::contentHash64(zeros, 64);
    EXPECT_NE(empty, z31);
    EXPECT_NE(z31, z32); // zero-padded tail vs explicit zero block
    EXPECT_NE(z32, z64);

    std::uint8_t flipped[32] = {};
    flipped[17] ^= 0x20;
    EXPECT_NE(sbbt::contentHash64(flipped, 32), z32);
}

TEST(ContentHasher, FileHashMatchesBufferHash)
{
    const std::string path = mbp::test::tempDir() + "/hash_probe.bin";
    std::vector<std::uint8_t> data(70'001);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = std::uint8_t(i ^ (i >> 8));
    writeFileBytes(path, data);

    std::uint64_t from_file = 0;
    ASSERT_TRUE(sbbt::fileContentHash(path, from_file));
    EXPECT_EQ(from_file, sbbt::contentHash64(data.data(), data.size()));

    std::string error;
    std::uint64_t unused = 0;
    EXPECT_FALSE(sbbt::fileContentHash(path + ".missing", unused, &error));
    EXPECT_NE(error, "");
    std::remove(path.c_str());
}

class ArenaFileTest : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        trace_path_ = writeTrace("arena_rt.sbbt", 901, 120'000);
        std::string error;
        decoded_ = sbbt::MemTrace::load(trace_path_, {}, &error);
        ASSERT_NE(decoded_, nullptr) << error;
        arena_path_ = mbp::test::tempDir() + "/arena_rt.sbbta";
        ASSERT_TRUE(decoded_->writeArena(arena_path_, 0xfeedf00d, &error))
            << error;
    }

    void
    TearDown() override
    {
        std::remove(trace_path_.c_str());
        std::remove(arena_path_.c_str());
    }

    std::string trace_path_;
    std::string arena_path_;
    std::shared_ptr<const sbbt::MemTrace> decoded_;
};

TEST_F(ArenaFileTest, RoundTripPreservesEveryColumn)
{
    std::string error;
    std::uint64_t source_hash = 0;
    auto mapped = sbbt::MemTrace::mapFile(arena_path_, &error, &source_hash);
    ASSERT_NE(mapped, nullptr) << error;
    EXPECT_TRUE(mapped->mapped());
    EXPECT_FALSE(decoded_->mapped());
    EXPECT_EQ(source_hash, 0xfeedf00dull);
    expectSameArena(*decoded_, *mapped);

    // A mapped arena accounts for the mapping, not for empty vectors.
    EXPECT_EQ(mapped->memoryBytes(),
              std::filesystem::file_size(arena_path_) +
                  sizeof(sbbt::MemTrace));
}

TEST_F(ArenaFileTest, WriteIsDeterministicAndMappedRewriteIsIdentical)
{
    // Serialization is a pure function of the arena: writing the decoded
    // arena twice, or writing the *mapped* arena, yields the same bytes.
    const std::string again = arena_path_ + ".2";
    const std::string from_map = arena_path_ + ".3";
    std::string error;
    ASSERT_TRUE(decoded_->writeArena(again, 0xfeedf00d, &error)) << error;
    auto mapped = sbbt::MemTrace::mapFile(arena_path_, &error);
    ASSERT_NE(mapped, nullptr) << error;
    ASSERT_TRUE(mapped->writeArena(from_map, 0xfeedf00d, &error)) << error;

    const auto original = readFileBytes(arena_path_);
    ASSERT_FALSE(original.empty());
    EXPECT_EQ(original, readFileBytes(again));
    EXPECT_EQ(original, readFileBytes(from_map));
    std::remove(again.c_str());
    std::remove(from_map.c_str());
}

TEST_F(ArenaFileTest, CursorStreamsIdenticallyOverMappedArena)
{
    std::string error;
    auto mapped = sbbt::MemTrace::mapFile(arena_path_, &error);
    ASSERT_NE(mapped, nullptr) << error;
    ASSERT_EQ(mapped->size(), decoded_->size());
    // Walk both arenas in the block driver's column slices.
    constexpr std::size_t kSlice = 4096;
    for (std::size_t begin = 0; begin < decoded_->size(); begin += kSlice) {
        const sbbt::BranchColumns a = decoded_->columns(begin, kSlice);
        const sbbt::BranchColumns b = mapped->columns(begin, kSlice);
        ASSERT_EQ(a.size, b.size);
        for (std::size_t i = 0; i < a.size; ++i) {
            EXPECT_EQ(a.ip[i], b.ip[i]);
            EXPECT_EQ(a.target[i], b.target[i]);
            EXPECT_EQ(a.meta[i], b.meta[i]);
            EXPECT_EQ(a.instr[i], b.instr[i]);
            EXPECT_EQ(a.site[i], b.site[i]);
        }
        EXPECT_EQ(sbbt::countFirstSeen(a.first_seen, a.size),
                  sbbt::countFirstSeen(b.first_seen, b.size));
    }
}

TEST_F(ArenaFileTest, ReadArenaHeaderExposesTheFacts)
{
    sbbt::ArenaHeader header;
    std::string error;
    ASSERT_TRUE(sbbt::readArenaHeader(arena_path_, header, &error))
        << error;
    EXPECT_EQ(header.version, sbbt::kArenaFormatVersion);
    EXPECT_EQ(header.trace.branch_count, decoded_->size());
    EXPECT_EQ(header.num_sites, decoded_->numSites());
    EXPECT_EQ(header.source_hash, 0xfeedf00dull);
    EXPECT_EQ(header.file_bytes,
              std::filesystem::file_size(arena_path_));
    for (std::size_t c = 0; c < sbbt::kArenaColumnCount; ++c)
        EXPECT_EQ(header.columns[c].offset % sbbt::kArenaAlign, 0u) << c;
}

TEST_F(ArenaFileTest, TruncationIsRejected)
{
    const auto original = readFileBytes(arena_path_);
    ASSERT_GT(original.size(), sbbt::kArenaHeaderSize);

    // Truncated inside the header.
    auto stub = original;
    stub.resize(100);
    writeFileBytes(arena_path_, stub);
    std::string error;
    EXPECT_EQ(sbbt::MemTrace::mapFile(arena_path_, &error), nullptr);
    EXPECT_NE(error, "");

    // Truncated inside the payload: header is intact and self-consistent,
    // but the file no longer matches its committed size.
    auto cut = original;
    cut.resize(original.size() - 128);
    writeFileBytes(arena_path_, cut);
    error.clear();
    EXPECT_EQ(sbbt::MemTrace::mapFile(arena_path_, &error), nullptr);
    EXPECT_NE(error.find("size"), std::string::npos) << error;
}

TEST_F(ArenaFileTest, PayloadBitFlipIsRejected)
{
    auto bytes = readFileBytes(arena_path_);
    ASSERT_GT(bytes.size(), sbbt::kArenaHeaderSize);
    bytes[sbbt::kArenaHeaderSize + bytes.size() / 2] ^= 0x01;
    writeFileBytes(arena_path_, bytes);
    std::string error;
    EXPECT_EQ(sbbt::MemTrace::mapFile(arena_path_, &error), nullptr);
    EXPECT_NE(error.find("checksum"), std::string::npos) << error;
}

TEST_F(ArenaFileTest, HeaderBitFlipIsRejected)
{
    auto bytes = readFileBytes(arena_path_);
    bytes[24] ^= 0x40; // instruction_count field
    writeFileBytes(arena_path_, bytes);
    std::string error;
    EXPECT_EQ(sbbt::MemTrace::mapFile(arena_path_, &error), nullptr);
    EXPECT_NE(error.find("header checksum"), std::string::npos) << error;
}

TEST_F(ArenaFileTest, FutureFormatVersionIsRejected)
{
    // Re-encode the header with a bumped format version and a *valid*
    // checksum: the version check itself must reject it, so files from a
    // future MBPlib degrade to a fresh decode instead of misparsing.
    sbbt::ArenaHeader header;
    std::string error;
    ASSERT_TRUE(sbbt::readArenaHeader(arena_path_, header, &error));
    header.version = sbbt::kArenaFormatVersion + 1;
    const auto encoded = sbbt::encodeArenaHeader(header);
    auto bytes = readFileBytes(arena_path_);
    std::memcpy(bytes.data(), encoded.data(), encoded.size());
    writeFileBytes(arena_path_, bytes);
    EXPECT_EQ(sbbt::MemTrace::mapFile(arena_path_, &error), nullptr);
    EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST_F(ArenaFileTest, BadMagicIsRejected)
{
    auto bytes = readFileBytes(arena_path_);
    bytes[0] = 'X';
    writeFileBytes(arena_path_, bytes);
    std::string error;
    EXPECT_EQ(sbbt::MemTrace::mapFile(arena_path_, &error), nullptr);
    EXPECT_NE(error.find("magic"), std::string::npos) << error;

    // A non-SBBT-A file entirely (the source trace) is rejected the same
    // way, not misparsed.
    error.clear();
    EXPECT_EQ(sbbt::MemTrace::mapFile(trace_path_, &error), nullptr);
    EXPECT_NE(error, "");
}

namespace
{

/** Fresh store directory unique to @p tag under the test temp dir. */
std::string
freshStoreDir(const std::string &tag)
{
    const std::string dir = mbp::test::tempDir() + "/arena_store_" + tag;
    std::filesystem::remove_all(dir);
    return dir;
}

std::size_t
countSidecars(const std::string &dir)
{
    std::size_t count = 0;
    for (const auto &file : std::filesystem::directory_iterator(dir))
        count += file.path().extension() == ".sbbta";
    return count;
}

} // namespace

TEST(ArenaStore, MaterializesOnceThenMaps)
{
    const std::string trace = writeTrace("store_once.sbbt", 911, 80'000);
    sbbt::ArenaStore store(freshStoreDir("once"));
    ASSERT_TRUE(store.ok());

    std::string error;
    sbbt::ArenaStore::Info first_info;
    auto first = store.acquire(trace, {}, &error, &first_info);
    ASSERT_NE(first, nullptr) << error;
    EXPECT_FALSE(first_info.mapped);
    EXPECT_TRUE(first_info.materialized);
    EXPECT_NE(first_info.content_hash, 0u);
    EXPECT_TRUE(std::filesystem::exists(first_info.sidecar));

    sbbt::ArenaStore::Info second_info;
    auto second = store.acquire(trace, {}, &error, &second_info);
    ASSERT_NE(second, nullptr) << error;
    EXPECT_TRUE(second_info.mapped);
    EXPECT_FALSE(second_info.materialized);
    EXPECT_TRUE(second->mapped());
    EXPECT_EQ(second_info.content_hash, first_info.content_hash);
    expectSameArena(*first, *second);
    EXPECT_EQ(countSidecars(store.dir()), 1u);
    std::remove(trace.c_str());
}

TEST(ArenaStore, CorruptSidecarFallsBackToDecodeAndRewrites)
{
    const std::string trace = writeTrace("store_heal.sbbt", 912, 60'000);
    sbbt::ArenaStore store(freshStoreDir("heal"));
    ASSERT_TRUE(store.ok());
    std::string error;
    sbbt::ArenaStore::Info info;
    auto first = store.acquire(trace, {}, &error, &info);
    ASSERT_NE(first, nullptr) << error;

    // Flip one payload bit in the sidecar on disk.
    auto bytes = readFileBytes(info.sidecar);
    bytes[sbbt::kArenaHeaderSize + 7] ^= 0x80;
    writeFileBytes(info.sidecar, bytes);

    sbbt::ArenaStore::Info healed;
    auto second = store.acquire(trace, {}, &error, &healed);
    ASSERT_NE(second, nullptr) << error << " (never fails on a corrupt "
                                           "sidecar, only on a corrupt "
                                           "trace)";
    EXPECT_FALSE(healed.mapped);
    EXPECT_TRUE(healed.materialized) << "sidecar must be rewritten";
    expectSameArena(*first, *second);

    // The rewrite healed the store: the next acquire maps again.
    sbbt::ArenaStore::Info third;
    auto mapped = store.acquire(trace, {}, &error, &third);
    ASSERT_NE(mapped, nullptr) << error;
    EXPECT_TRUE(third.mapped);
    std::remove(trace.c_str());
}

TEST(ArenaStore, StaleSidecarForOtherContentIsNotServed)
{
    // Plant a *valid* sidecar of trace A under the name B's hash resolves
    // to: the recorded source hash disagrees, so B must be re-decoded,
    // not served A's branches.
    const std::string trace_a = writeTrace("store_a.sbbt", 913, 50'000);
    const std::string trace_b = writeTrace("store_b.sbbt", 914, 50'000);
    sbbt::ArenaStore store(freshStoreDir("stale"));
    ASSERT_TRUE(store.ok());
    std::string error;
    sbbt::ArenaStore::Info info_a;
    ASSERT_NE(store.acquire(trace_a, {}, &error, &info_a), nullptr);

    std::uint64_t hash_b = 0;
    ASSERT_TRUE(sbbt::fileContentHash(trace_b, hash_b));
    std::filesystem::copy_file(
        info_a.sidecar, store.sidecarPathFor(hash_b),
        std::filesystem::copy_options::overwrite_existing);

    sbbt::ArenaStore::Info info_b;
    auto arena_b = store.acquire(trace_b, {}, &error, &info_b);
    ASSERT_NE(arena_b, nullptr) << error;
    EXPECT_FALSE(info_b.mapped);
    EXPECT_NE(info_b.rejected.find("hash"), std::string::npos)
        << info_b.rejected;

    auto direct_b = sbbt::MemTrace::load(trace_b, {}, &error);
    ASSERT_NE(direct_b, nullptr) << error;
    expectSameArena(*direct_b, *arena_b);
    std::remove(trace_a.c_str());
    std::remove(trace_b.c_str());
}

TEST(ArenaStore, UnusableDirectoryDegradesToPlainDecode)
{
    const std::string trace = writeTrace("store_nodir.sbbt", 915, 30'000);
    // A path that cannot be created (under a file, not a directory).
    sbbt::ArenaStore store(trace + "/not_a_dir");
    EXPECT_FALSE(store.ok());
    std::string error;
    sbbt::ArenaStore::Info info;
    auto arena = store.acquire(trace, {}, &error, &info);
    ASSERT_NE(arena, nullptr) << error;
    EXPECT_FALSE(info.mapped);
    EXPECT_FALSE(info.materialized);
    std::remove(trace.c_str());
}

TEST(ArenaStore, MissingTraceStillFailsWithTheRealError)
{
    sbbt::ArenaStore store(freshStoreDir("missing"));
    std::string error;
    EXPECT_EQ(store.acquire(mbp::test::tempDir() + "/no_such.sbbt", {},
                            &error),
              nullptr);
    EXPECT_NE(error, "");
}

TEST(ArenaStore, ResolveDirPrecedence)
{
    const char *saved = std::getenv(sbbt::kArenaCacheEnv);
    const std::string saved_value = saved ? saved : "";

    ::setenv(sbbt::kArenaCacheEnv, "/from/env", 1);
    EXPECT_EQ(sbbt::ArenaStore::resolveDir("/explicit"), "/explicit");
    EXPECT_EQ(sbbt::ArenaStore::resolveDir(""), "/from/env");
    ::unsetenv(sbbt::kArenaCacheEnv);
    // Without the env var the fallback is a user cache dir (or "" in a
    // bare environment) — only assert it no longer points at the env.
    EXPECT_NE(sbbt::ArenaStore::resolveDir(""), "/from/env");

    if (saved)
        ::setenv(sbbt::kArenaCacheEnv, saved_value.c_str(), 1);
}

TEST(ArenaStore, ConcurrentMaterializationProducesOneSidecar)
{
    const std::string trace = writeTrace("store_race.sbbt", 916, 100'000);
    const std::string dir = freshStoreDir("race");
    constexpr int kThreads = 8;
    std::vector<std::shared_ptr<const sbbt::MemTrace>> arenas(kThreads);
    std::vector<sbbt::ArenaStore::Info> infos(kThreads);
    std::vector<std::thread> threads;
    for (int w = 0; w < kThreads; ++w) {
        threads.emplace_back([&, w] {
            // One store instance per thread: the race is cross-process in
            // production, so nothing may rely on shared in-process state.
            sbbt::ArenaStore store(dir);
            std::string error;
            arenas[w] = store.acquire(trace, {}, &error, &infos[w]);
        });
    }
    for (auto &thread : threads)
        thread.join();

    int materialized = 0;
    for (int w = 0; w < kThreads; ++w) {
        ASSERT_NE(arenas[w], nullptr) << w;
        expectSameArena(*arenas[0], *arenas[w]);
        materialized += infos[w].materialized;
    }
    EXPECT_GE(materialized, 1);
    EXPECT_EQ(countSidecars(dir), 1u);
    // No abandoned temp files either.
    for (const auto &file : std::filesystem::directory_iterator(dir))
        EXPECT_EQ(file.path().filename().string().rfind(".tmp-", 0),
                  std::string::npos)
            << file.path();
    std::remove(trace.c_str());
}
