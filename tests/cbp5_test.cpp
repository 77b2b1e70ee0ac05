/**
 * @file
 * Tests for the CBP5-style baseline: BTT text trace round trips, the
 * championship interface, and the framework runner.
 */
#include "cbp5/framework.hpp"
#include "cbp5/trace.hpp"

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cstdio>
#include <random>

#include "mbp/predictors/gshare.hpp"
#include "mbp/tracegen/generator.hpp"
#include "test_tmp.hpp"

using namespace cbp5;
using mbp::Branch;
using mbp::OpCode;

namespace
{

std::string
tempPath(const std::string &name)
{
    return mbp::test::tempDir() + "/" + name;
}

std::vector<mbp::tracegen::TraceEvent>
events(std::uint64_t seed = 7, std::uint64_t instr = 200'000)
{
    mbp::tracegen::WorkloadSpec spec;
    spec.seed = seed;
    spec.num_instr = instr;
    return mbp::tracegen::generateAll(spec);
}

std::string
writeBtt(const std::string &name,
         const std::vector<mbp::tracegen::TraceEvent> &evs)
{
    std::string path = tempPath(name);
    BttWriter writer(path);
    for (const auto &ev : evs)
        writer.append(ev.branch, ev.instr_gap);
    EXPECT_TRUE(writer.close()) << writer.error();
    return path;
}

} // namespace

class BttRoundTrip : public testing::TestWithParam<const char *>
{};

TEST_P(BttRoundTrip, PreservesTheExactStream)
{
    auto evs = events();
    std::string path = writeBtt(std::string("rt_") + GetParam(), evs);
    BttReader reader(path);
    ASSERT_TRUE(reader.ok()) << reader.error();
    EXPECT_EQ(reader.branchCount(), evs.size());
    std::uint64_t instr = 0;
    EdgeInfo edge;
    std::size_t i = 0;
    while (reader.next(edge)) {
        ASSERT_LT(i, evs.size());
        ASSERT_EQ(edge.branch, evs[i].branch) << "at " << i;
        ASSERT_EQ(edge.instr_gap, evs[i].instr_gap) << "at " << i;
        instr += edge.instr_gap + 1;
        ++i;
    }
    EXPECT_TRUE(reader.error().empty()) << reader.error();
    EXPECT_EQ(i, evs.size());
    EXPECT_EQ(reader.instructionCount(), instr);
    std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Codecs, BttRoundTrip,
                         testing::Values("plain.btt", "gzip.btt.gz",
                                         "flz.btt.flz"));

TEST(BttReader, MissingFile)
{
    BttReader reader("/nonexistent/trace.btt");
    EXPECT_FALSE(reader.ok());
}

TEST(BttReader, RejectsGarbage)
{
    std::string path = tempPath("garbage.btt");
    std::FILE *f = std::fopen(path.c_str(), "w");
    std::fputs("this is not a trace\n", f);
    std::fclose(f);
    BttReader reader(path);
    EXPECT_FALSE(reader.ok());
    std::remove(path.c_str());
}

TEST(BttReader, DetectsTruncatedSequence)
{
    auto evs = events(9, 50'000);
    std::string path = writeBtt("trunc_src.btt", evs);
    // Copy all but the last 40 bytes.
    std::FILE *in = std::fopen(path.c_str(), "rb");
    std::fseek(in, 0, SEEK_END);
    long size = std::ftell(in);
    std::rewind(in);
    std::vector<char> data(static_cast<std::size_t>(size - 40));
    ASSERT_EQ(std::fread(data.data(), 1, data.size(), in), data.size());
    std::fclose(in);
    std::string cut = tempPath("trunc_cut.btt");
    std::FILE *out = std::fopen(cut.c_str(), "wb");
    std::fwrite(data.data(), 1, data.size(), out);
    std::fclose(out);

    BttReader reader(cut);
    ASSERT_TRUE(reader.ok());
    EdgeInfo edge;
    while (reader.next(edge)) {
    }
    EXPECT_FALSE(reader.error().empty());
    std::remove(path.c_str());
    std::remove(cut.c_str());
}

TEST(BttReader, HeaderCountsAreBoundedByTheInput)
{
    // A tiny file whose header claims 2^31 nodes and edges: the reader
    // must fail without sizing anything by those counts.
    std::string path = tempPath("inflated.btt");
    std::FILE *f = std::fopen(path.c_str(), "w");
    std::fputs("BTT v1\n"
               "instruction_count 100\n"
               "branch_count 10\n"
               "node_count 2147483648\n"
               "edge_count 2147483648\n"
               "node 0 0x400000 1\n",
               f);
    std::fclose(f);
    rusage before{};
    ASSERT_EQ(getrusage(RUSAGE_SELF, &before), 0);
    BttReader reader(path);
    rusage after{};
    ASSERT_EQ(getrusage(RUSAGE_SELF, &after), 0);
    EXPECT_FALSE(reader.ok());
    EXPECT_NE(reader.error().find("more than the input can hold"),
              std::string::npos)
        << reader.error();
    // ru_maxrss is in KiB.
    EXPECT_LT(after.ru_maxrss - before.ru_maxrss, 64 * 1024);
    std::remove(path.c_str());
}

TEST(OpTypeOf, ChampionshipTaxonomy)
{
    EXPECT_EQ(opTypeOf(OpCode::condJump()), OpType::kCondDirect);
    EXPECT_EQ(opTypeOf(OpCode(mbp::BranchType::kJump, true, true)),
              OpType::kCondIndirect);
    EXPECT_EQ(opTypeOf(OpCode::jump()), OpType::kUncondDirect);
    EXPECT_EQ(opTypeOf(OpCode::indJump()), OpType::kUncondIndirect);
    EXPECT_EQ(opTypeOf(OpCode::call()), OpType::kCall);
    EXPECT_EQ(opTypeOf(OpCode::indCall()), OpType::kCallIndirect);
    EXPECT_EQ(opTypeOf(OpCode::ret()), OpType::kRet);
}

namespace
{

/** Championship-interface predictor counting calls. */
class CountingCbpPredictor : public CbpPredictor
{
  public:
    bool
    GetPrediction(std::uint64_t) override
    {
        ++predictions;
        return true;
    }
    void
    UpdatePredictor(std::uint64_t, OpType, bool, bool, std::uint64_t) override
    {
        ++updates;
    }
    void
    TrackOtherInst(std::uint64_t, OpType, bool, std::uint64_t) override
    {
        ++others;
    }

    std::uint64_t predictions = 0, updates = 0, others = 0;
};

} // namespace

TEST(Framework, CallDiscipline)
{
    auto evs = events(21, 100'000);
    std::string path = writeBtt("discipline.btt", evs);
    std::uint64_t cond = 0, other = 0;
    for (const auto &ev : evs)
        (ev.branch.isConditional() ? cond : other)++;

    CountingCbpPredictor pred;
    RunResult result = run(pred, path);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(pred.predictions, cond);
    EXPECT_EQ(pred.updates, cond);
    EXPECT_EQ(pred.others, other);
    EXPECT_EQ(result.branches, evs.size());
    EXPECT_EQ(result.conditional_branches, cond);
    std::remove(path.c_str());
}

TEST(Framework, MaxInstrBudget)
{
    auto evs = events(23, 100'000);
    std::string path = writeBtt("budget.btt", evs);
    CountingCbpPredictor pred;
    RunResult result = run(pred, path, 10'000);
    ASSERT_TRUE(result.ok);
    EXPECT_EQ(result.instructions, 10'000u);
    EXPECT_LT(result.branches, evs.size());
    std::remove(path.c_str());
}

TEST(Framework, ErrorsSurfaceInResult)
{
    CountingCbpPredictor pred;
    RunResult result = run(pred, "/nonexistent.btt");
    EXPECT_FALSE(result.ok);
    EXPECT_FALSE(result.error.empty());
}

TEST(Framework, MbpAdapterRunsRealPredictor)
{
    auto evs = events(25, 300'000);
    std::string path = writeBtt("adapter.btt", evs);
    mbp::pred::Gshare<15, 16> gshare;
    MbpAdapter adapter(gshare);
    RunResult result = run(adapter, path);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_GT(result.mispredictions, 0u);
    EXPECT_LT(result.mpki, 100.0);
    EXPECT_GT(result.mpki, 0.0);
    std::remove(path.c_str());
}

/** Fuzz-ish robustness: corrupting any single line must not crash. */
TEST(BttReader, SurvivesRandomSingleLineCorruption)
{
    auto evs = events(33, 30'000);
    std::string path = writeBtt("fuzz.btt", evs); // uncompressed
    // Load the text, corrupt a line, write a temp copy, parse it.
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    std::rewind(f);
    std::string text(static_cast<std::size_t>(size), '\0');
    ASSERT_EQ(std::fread(text.data(), 1, text.size(), f), text.size());
    std::fclose(f);

    std::mt19937 rng(9);
    for (int round = 0; round < 30; ++round) {
        std::string corrupted = text;
        std::size_t pos = rng() % corrupted.size();
        switch (rng() % 3) {
          case 0: corrupted[pos] = 'x'; break;
          case 1: corrupted[pos] = '-'; break;
          default: corrupted.erase(pos, 1 + rng() % 20); break;
        }
        std::string cpath = tempPath("fuzz_corrupt.btt");
        std::FILE *out = std::fopen(cpath.c_str(), "wb");
        std::fwrite(corrupted.data(), 1, corrupted.size(), out);
        std::fclose(out);
        // Must terminate cleanly: either parse fails or the stream ends
        // with/without an error, but no crash and no infinite loop.
        BttReader reader(cpath);
        if (reader.ok()) {
            EdgeInfo edge;
            std::uint64_t count = 0;
            while (reader.next(edge) && count < 10'000'000)
                ++count;
            EXPECT_LE(count, evs.size());
        }
        std::remove(cpath.c_str());
    }
    std::remove(path.c_str());
}
