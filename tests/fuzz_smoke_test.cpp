/**
 * @file
 * The fuzz-smoke tier: a small seeded fuzzing campaign that rides in the
 * default ctest run (`ctest -L fuzz-smoke`, budgeted well under 10 s).
 * Full-size campaigns run from the mbp_fuzz binary; this tier exists so a
 * regression that the differential or metamorphic oracles would catch
 * never survives an ordinary `ctest` invocation.
 */
#include "mbp/testkit/fuzz.hpp"

#include <gtest/gtest.h>

#include "mbp/sbbt/reader.hpp"
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

    const auto frontend_targets =
        testkit::frontendDiffTargets(options.frontend_predictors);
    json_t first = testkit::runFuzz(options, testkit::defaultDiffTargets(),
                                    frontend_targets);
    EXPECT_TRUE(first.find("ok")->asBool()) << first.dump(2);

    json_t second = testkit::runFuzz(
        options, testkit::defaultDiffTargets(), frontend_targets);
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

    testkit::FrontendDiffTarget broken = testkit::brokenFrontendTarget();
    json_t report = testkit::runFuzz(options, {}, {broken});
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

    auto subject = broken.subject();
    auto reference = broken.reference();
    testkit::FrontendMismatch mismatch =
        testkit::runFrontendLockstep(*subject, *reference, events);
    EXPECT_TRUE(mismatch.found)
        << "replaying the shrunk artifact must reproduce the divergence";
}
