/**
 * @file
 * The fuzz-smoke tier: a small seeded fuzzing campaign that rides in the
 * default ctest run (`ctest -L fuzz-smoke`, budgeted well under 10 s).
 * Full-size campaigns run from the mbp_fuzz binary; this tier exists so a
 * regression that the differential or metamorphic oracles would catch
 * never survives an ordinary `ctest` invocation. It also corrupts traces
 * byte by byte and checks that every decoder reads a damaged trace alike.
 */
#include "mbp/testkit/fuzz.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <random>
#include <vector>

#include "decode_check.hpp"
#include "mbp/predictors/roster.hpp"
#include "mbp/sbbt/reader.hpp"
#include "mbp/sbbt/writer.hpp"
#include "mbp/tracegen/adversarial.hpp"
#include "test_tmp.hpp"

using namespace mbp;

TEST(FuzzSmoke, SeededCampaignIsCleanAndDeterministic)
{
    testkit::FuzzOptions options;
    options.seed = 20260805;
    options.num_streams = 12;
    options.max_branches = 1024;
    options.artifact_dir = mbp::test::tempDir() + "/fuzz-smoke";
    options.metamorphic_predictors = {"bimodal", "gshare", "tage"};
    options.frontend_predictors = {"gshare"};

    const auto targets = testkit::fuzzTargets(options);
    json_t first = testkit::runFuzz(options, targets);
    EXPECT_TRUE(first.find("ok")->asBool()) << first.dump(2);
    EXPECT_EQ(first.find("counts")
                  ->find("frontend_differential_checks")
                  ->asUint(),
              2u * options.num_streams)
        << "both front-end targets must run on every stream";

    json_t second = testkit::runFuzz(options, targets);
    EXPECT_EQ(first.dump(), second.dump())
        << "same options must reproduce the identical report";
}

TEST(FuzzSmoke, SelfTestStillCatchesThePlantedBug)
{
    testkit::FuzzOptions options;
    options.seed = 20260805;
    options.num_streams = 4;
    options.max_branches = 512;
    options.artifact_dir = mbp::test::tempDir() + "/fuzz-smoke-selftest";
    options.metamorphic = false;
    json_t report =
        testkit::runFuzz(options, {testkit::brokenGshareTarget()});
    EXPECT_GT(report.find("failures")->size(), 0u)
        << "a fuzzer that cannot catch a planted bug is not a fuzzer";
}

TEST(FuzzSmoke, FrontendSelfTestCatchesShrinksAndReplays)
{
    testkit::FuzzOptions options;
    options.seed = 20260805;
    options.num_streams = 4;
    options.max_branches = 512;
    options.artifact_dir = mbp::test::tempDir() + "/fuzz-smoke-frontend";
    options.metamorphic = false;

    json_t report =
        testkit::runFuzz(options, {testkit::brokenFrontendTarget()});
    const json_t &failures = *report.find("failures");
    ASSERT_GT(failures.size(), 0u)
        << "the planted BTB mutation must be caught";

    // Pick the first shrunk frontend witness and replay its artifact:
    // the persisted SBBT must still reproduce the divergence.
    const json_t *witness = nullptr;
    for (const json_t &failure : failures.elements()) {
        if (failure.find("type")->asString() == "differential" &&
            failure.find("lane")->asString() == "frontend") {
            witness = &failure;
            break;
        }
    }
    ASSERT_NE(witness, nullptr) << report.dump(2);
    EXPECT_LT(witness->find("shrunk_branches")->asUint(), 64u)
        << "ddmin must shrink the witness";

    sbbt::SbbtReader reader(witness->find("sbbt")->asString());
    ASSERT_TRUE(reader.ok()) << reader.error();
    testkit::Events events;
    sbbt::PacketData packet;
    while (reader.next(packet))
        events.push_back({packet.branch, packet.instr_gap});
    ASSERT_GT(events.size(), 0u);

    // Replay through the call the repro stanza prints, on the pair
    // brokenFrontendTarget() names.
    frontend::FrontEnd subject(pred::makeByName("gshare"),
                               frontend::FrontEndConfig{});
    testkit::RefFrontEnd reference(pred::makeByName("gshare"),
                                   frontend::FrontEndConfig{},
                                   testkit::FrontendMutation::kBtbStaleTarget);
    testkit::Mismatch mismatch =
        testkit::runLockstep(subject, reference, events);
    EXPECT_TRUE(mismatch.found)
        << "replaying the shrunk artifact must reproduce the divergence";
    EXPECT_EQ(mismatch.describe(), witness->find("detail")->asString());

    std::ifstream stanza(witness->find("stanza")->asString());
    const std::string text((std::istreambuf_iterator<char>(stanza)),
                           std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("mbp::testkit::runLockstep(subject, reference, "
                        "events)"),
              std::string::npos)
        << text;
}

TEST(FuzzSmoke, SingleByteCorruptionsDecodeAlikeEveryWay)
{
    // One stream, raw and FLZ-compressed; each round flips one byte of
    // one of them. The packet-at-a-time reader, MemTrace::load and a
    // TraceWindow (a seeded capacity and reader block) must agree on
    // every row, the site tables and the error.
    const std::string dir = mbp::test::tempDir();
    const testkit::Events events = tracegen::indirectStorm(3, 1500, 8, 31);
    std::vector<std::vector<std::uint8_t>> bases;
    const std::vector<std::string> names = {dir + "/base.sbbt",
                                            dir + "/base.sbbt.flz"};
    for (const std::string &name : names) {
        ASSERT_EQ(testkit::writeSbbtFile(events, name), "");
        std::ifstream in(name, std::ios::binary);
        bases.emplace_back(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
    }

    std::mt19937_64 rng(20261020);
    int clean = 0;
    int failed = 0;
    for (int round = 0; round < 200; ++round) {
        const std::size_t which = round % 2;
        std::vector<std::uint8_t> bytes = bases[which];
        const std::size_t at = rng() % bytes.size();
        bytes[at] ^= static_cast<std::uint8_t>(1 + rng() % 255);
        const std::string path =
            dir + (which == 0 ? "/corrupt.sbbt" : "/corrupt.sbbt.flz");
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out.write(reinterpret_cast<const char *>(bytes.data()),
                      std::streamsize(bytes.size()));
        }
        const std::size_t capacities[] = {1, 63, 64, 4096};
        const std::size_t blocks[] = {1, 7, sbbt::kDefaultBlockPackets};
        const std::size_t capacity = capacities[rng() % 4];
        const std::size_t block = blocks[rng() % 3];
        SCOPED_TRACE("round " + std::to_string(round) + ": byte " +
                     std::to_string(at) + " of " + names[which] +
                     ", capacity " + std::to_string(capacity) +
                     ", reader block " + std::to_string(block));

        const test::DecodedTrace want = test::decodeByPackets(path);
        ASSERT_EQ(test::diffArena(want, path, block), "");
        ASSERT_EQ(test::diffWindow(want, path, capacity, block), "");
        ++(want.error.empty() ? clean : failed);
    }
    EXPECT_GT(clean, 0) << "no corruption left a readable trace";
    EXPECT_GT(failed, 0) << "no corruption was detected";
}
