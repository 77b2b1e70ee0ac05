/**
 * @file
 * Tests for mbp::testkit: the reference predictors against their roster
 * subjects, the lockstep differential oracle, the metamorphic invariants,
 * the ddmin shrinker and the adversarial stream generators feeding them.
 */
#include "mbp/testkit/fuzz.hpp"
#include "mbp/testkit/oracle.hpp"
#include "mbp/testkit/reference.hpp"
#include "mbp/testkit/shrink.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>

#include "mbp/predictors/bimodal.hpp"
#include "mbp/predictors/gshare.hpp"
#include "mbp/predictors/roster.hpp"
#include "mbp/sbbt/format.hpp"
#include "mbp/sbbt/reader.hpp"
#include "mbp/tracegen/adversarial.hpp"
#include "mbp/utils/hash.hpp"
#include "test_tmp.hpp"

using namespace mbp;
using testkit::Events;

namespace
{

std::string
tempPath(const std::string &name)
{
    return mbp::test::tempDir() + "/" + name;
}

/** All conditional outcomes of the branch at @p ip, in stream order. */
std::vector<bool>
outcomesAt(const Events &events, std::uint64_t ip)
{
    std::vector<bool> outcomes;
    for (const auto &ev : events)
        if (ev.branch.ip() == ip)
            outcomes.push_back(ev.branch.isTaken());
    return outcomes;
}

} // namespace

// ---------------------------------------------------------------------------
// Adversarial stream generators.

TEST(Adversarial, StreamsAreValidAndDeterministic)
{
    for (int shape = 0; shape < 5; ++shape) {
        Events a, b;
        switch (shape) {
        case 0:
            a = tracegen::aliasingStorm(11, 500, 16);
            b = tracegen::aliasingStorm(11, 500, 16);
            break;
        case 1:
            a = tracegen::historyWrap(12, 500, 15);
            b = tracegen::historyWrap(12, 500, 15);
            break;
        case 2:
            a = tracegen::rasOverflow(13, 500, 16);
            b = tracegen::rasOverflow(13, 500, 16);
            break;
        case 3:
            a = tracegen::degenerateRun(500, true);
            b = tracegen::degenerateRun(500, true);
            break;
        default:
            a = tracegen::phaseFlips(14, 500, 64);
            b = tracegen::phaseFlips(14, 500, 64);
            break;
        }
        ASSERT_EQ(a.size(), 500u) << "shape " << shape;
        for (const auto &ev : a)
            ASSERT_TRUE(sbbt::branchIsValid(ev.branch)) << "shape " << shape;
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].branch.ip(), b[i].branch.ip());
            EXPECT_EQ(a[i].branch.isTaken(), b[i].branch.isTaken());
            EXPECT_EQ(a[i].instr_gap, b[i].instr_gap);
        }
    }
}

TEST(Adversarial, AliasingStormCollidesInTheFold)
{
    for (int table_bits : {12, 16, 17}) {
        Events events = tracegen::aliasingStorm(5, 200, table_bits);
        std::set<std::uint64_t> ips, indices;
        for (const auto &ev : events) {
            ips.insert(ev.branch.ip());
            indices.insert(XorFold(ev.branch.ip() >> 2, table_bits));
        }
        EXPECT_GT(ips.size(), 1u) << "distinct sites expected";
        EXPECT_EQ(indices.size(), 1u)
            << "all sites must share one " << table_bits << "-bit index";
    }
}

TEST(Adversarial, HistoryWrapVictimHasPeriodHistoryBitsPlusOne)
{
    constexpr int kHistoryBits = 15;
    Events events = tracegen::historyWrap(21, 2000, kHistoryBits);
    // The victim is the most frequent ip.
    std::vector<bool> outcomes = outcomesAt(events, events[0].branch.ip());
    ASSERT_GT(outcomes.size(), 2u * (kHistoryBits + 1));
    for (std::size_t i = kHistoryBits + 1; i < outcomes.size(); ++i)
        ASSERT_EQ(outcomes[i], outcomes[i - (kHistoryBits + 1)])
            << "victim outcome " << i << " must repeat with period "
            << kHistoryBits + 1;
}

TEST(Adversarial, StreamBuilderClampsGapsToSbbtLimit)
{
    tracegen::StreamBuilder sb;
    sb.gap(100000).cond(0x500000, true);
    Events events = sb.take();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].instr_gap, sbbt::kMaxInstrGap);
}

TEST(Adversarial, InterleavePreservesRelativeOrderAndLength)
{
    Events a = tracegen::degenerateRun(50, true);
    Events b = tracegen::degenerateRun(70, false);
    Events mixed = tracegen::interleave(a, b, 9);
    ASSERT_EQ(mixed.size(), 120u);
    std::size_t taken = 0;
    for (const auto &ev : mixed)
        taken += ev.branch.isTaken();
    EXPECT_EQ(taken, 50u);
}

// ---------------------------------------------------------------------------
// Differential oracles: subjects against independent references.

TEST(Differential, RosterBimodalMatchesReference)
{
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        pred::Bimodal<16> subject;
        testkit::RefBimodal reference(16, 2);
        Events events = tracegen::aliasingStorm(seed, 3000, 16);
        auto mismatch = testkit::runLockstep(subject, reference, events);
        EXPECT_FALSE(mismatch.found) << mismatch.describe();
    }
}

TEST(Differential, RosterGshareMatchesReference)
{
    for (std::uint64_t seed : {4u, 5u, 6u}) {
        pred::Gshare<15, 17> subject;
        testkit::RefGshare reference(15, 17);
        Events events = tracegen::historyWrap(seed, 3000, 15);
        auto mismatch = testkit::runLockstep(subject, reference, events);
        EXPECT_FALSE(mismatch.found) << mismatch.describe();
    }
}

TEST(Differential, TageLiteMatchesReference)
{
    for (std::uint64_t seed : {7u, 8u, 9u}) {
        testkit::TageLite subject;
        testkit::RefTageLite reference;
        Events events = tracegen::concat(
            tracegen::historyWrap(seed, 1500, 16),
            tracegen::aliasingStorm(seed + 100, 1500, 10));
        auto mismatch = testkit::runLockstep(subject, reference, events);
        EXPECT_FALSE(mismatch.found) << mismatch.describe();
    }
}

TEST(Differential, BrokenGshareIsCaught)
{
    testkit::BrokenGshare subject;
    testkit::RefGshare reference(15, 17);
    Events events = tracegen::historyWrap(42, 3000, 15);
    auto mismatch = testkit::runLockstep(subject, reference, events);
    EXPECT_TRUE(mismatch.found)
        << "an off-by-one history bug must diverge on history wraps";
    EXPECT_STREQ(mismatch.field, "direction");
    EXPECT_NE(mismatch.describe().find("subject predicted "),
              std::string::npos);
    EXPECT_EQ(mismatch.describe().find("target"), std::string::npos)
        << "a conditional mismatch reads as a direction one";

    const testkit::DiffTarget target = testkit::brokenGshareTarget();
    EXPECT_EQ(target.lane, testkit::Lane::kConditional);
    EXPECT_EQ(target.run(events).describe(), mismatch.describe())
        << "the target's run() is runLockstep over fresh instances";
}

TEST(Differential, EveryTargetNamesItsLane)
{
    for (const testkit::DiffTarget &target : testkit::defaultDiffTargets())
        EXPECT_EQ(target.lane, testkit::Lane::kConditional) << target.name;
    const auto frontend_targets = testkit::frontendDiffTargets({"gshare"});
    ASSERT_EQ(frontend_targets.size(), 2u);
    for (const testkit::DiffTarget &target : frontend_targets)
        EXPECT_EQ(target.lane, testkit::Lane::kFrontend) << target.name;
    EXPECT_EQ(testkit::brokenFrontendTarget().lane,
              testkit::Lane::kFrontend);
    EXPECT_STREQ(testkit::laneName(testkit::Lane::kConditional),
                 "conditional");
    EXPECT_STREQ(testkit::laneName(testkit::Lane::kFrontend), "frontend");

    // fuzzTargets: the conditional lane's targets, then the front end's.
    const auto all = testkit::fuzzTargets(testkit::FuzzOptions{});
    ASSERT_EQ(all.size(), 5u);
    EXPECT_EQ(all[2].lane, testkit::Lane::kConditional);
    EXPECT_EQ(all[3].name, frontend_targets[0].name);
    EXPECT_EQ(all[4].name, frontend_targets[1].name);
}

// ---------------------------------------------------------------------------
// Metamorphic invariants.

TEST(Metamorphic, InvariantsHoldForRosterPredictors)
{
    Events events = tracegen::phaseFlips(31, 1200, 128);
    for (const char *name : {"bimodal", "gshare"}) {
        testkit::PredictorFactory factory = [name] {
            return pred::makeByName(name);
        };
        EXPECT_EQ("", testkit::checkWarmupSplit(
                          factory, events, tempPath("meta-warmup.sbbt")))
            << name;
        testkit::SimRunner runner = [factory](const SimArgs &args) {
            return simulate(*factory(), args);
        };
        EXPECT_EQ("", testkit::checkDeterminism(
                          runner, events, tempPath("meta-det.sbbt")))
            << name;
    }
    EXPECT_EQ("", testkit::checkRoundTrip(events, tempPath("meta-rt")));
}

TEST(Metamorphic, FrontendInvariantsHoldThroughTheSameDeterminismCheck)
{
    Events events = tracegen::deepRecursion(35, 1200, 17);
    testkit::SimRunner runner = [](const SimArgs &args) {
        frontend::FrontEnd front_end(pred::makeByName("gshare"),
                                     frontend::FrontEndConfig{});
        return frontend::simulate(front_end, args);
    };
    EXPECT_EQ("", testkit::checkFrontendWarmupSplit(
                      runner, events, tempPath("meta-fe-warmup.sbbt")));
    EXPECT_EQ("", testkit::checkDeterminism(runner, events,
                                            tempPath("meta-fe-det.sbbt"),
                                            "frontend-determinism"));
}

TEST(Metamorphic, RoundTripCoversCallsAndReturns)
{
    Events events = tracegen::rasOverflow(33, 800, 16);
    EXPECT_EQ("", testkit::checkRoundTrip(events, tempPath("meta-ras")));
}

// ---------------------------------------------------------------------------
// The shrinker.

TEST(Shrink, FindsTheMinimalWitness)
{
    // Plant two "magic" events in a 400-event stream; the predicate needs
    // both, in order. ddmin must strip everything else.
    Events noise = tracegen::phaseFlips(51, 400, 64);
    Events events;
    events.insert(events.end(), noise.begin(), noise.begin() + 150);
    tracegen::StreamBuilder sb;
    sb.cond(0x999000, true);
    Events magic1 = sb.take();
    sb.cond(0x999040, false);
    Events magic2 = sb.take();
    events.push_back(magic1[0]);
    events.insert(events.end(), noise.begin() + 150, noise.end());
    events.push_back(magic2[0]);

    auto needsBoth = [](const Events &candidate) {
        bool seen_first = false;
        for (const auto &ev : candidate) {
            if (ev.branch.ip() == 0x999000)
                seen_first = true;
            if (ev.branch.ip() == 0x999040 && seen_first)
                return true;
        }
        return false;
    };
    Events minimal = testkit::shrinkStream(events, needsBoth);
    ASSERT_EQ(minimal.size(), 2u);
    EXPECT_EQ(minimal[0].branch.ip(), 0x999000u);
    EXPECT_EQ(minimal[1].branch.ip(), 0x999040u);
}

TEST(Shrink, ReturnsInputWhenPredicateNeverFails)
{
    Events events = tracegen::degenerateRun(100, true);
    Events result = testkit::shrinkStream(
        events, [](const Events &) { return false; });
    EXPECT_EQ(result.size(), events.size());
}

TEST(Shrink, WriteReproProducesReplayableSbbtAndStanza)
{
    const std::string dir = tempPath("repro-dir");
    Events events = tracegen::degenerateRun(5, false);
    auto artifact =
        testkit::writeRepro(dir, "demo-case", events, "demo description");
    EXPECT_EQ(artifact.num_branches, 5u);

    sbbt::SbbtReader reader(artifact.sbbt_path);
    ASSERT_TRUE(reader.ok()) << reader.error();
    Events decoded;
    sbbt::PacketData packet;
    while (reader.next(packet))
        decoded.push_back({packet.branch, packet.instr_gap});
    ASSERT_EQ(decoded.size(), events.size());
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(decoded[i].branch.ip(), events[i].branch.ip());

    std::ifstream stanza(artifact.stanza_path);
    ASSERT_TRUE(stanza.good());
    std::string text((std::istreambuf_iterator<char>(stanza)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("TEST(FuzzRegression, demo_case)"),
              std::string::npos);
    EXPECT_NE(text.find("demo description"), std::string::npos);
    EXPECT_NE(text.find("runLockstep"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The fuzz driver.

TEST(Fuzz, MakeStreamIsDeterministicAndBounded)
{
    for (std::size_t i = 0; i < 20; ++i) {
        Events a = testkit::makeStream(77, i, 512);
        Events b = testkit::makeStream(77, i, 512);
        ASSERT_EQ(a.size(), b.size()) << "stream " << i;
        ASSERT_GE(a.size(), 1u);
        ASSERT_LE(a.size(), 512u + 1) << "stream " << i;
        for (std::size_t j = 0; j < a.size(); ++j) {
            ASSERT_EQ(a[j].branch.ip(), b[j].branch.ip());
            ASSERT_EQ(a[j].branch.isTaken(), b[j].branch.isTaken());
        }
        for (const auto &ev : a)
            ASSERT_TRUE(sbbt::branchIsValid(ev.branch));
    }
    // Different seeds must not produce the same campaign.
    Events a = testkit::makeStream(1, 0, 512);
    Events b = testkit::makeStream(2, 0, 512);
    bool differs = a.size() != b.size();
    for (std::size_t j = 0; !differs && j < a.size(); ++j)
        differs = a[j].branch.ip() != b[j].branch.ip() ||
                  a[j].branch.isTaken() != b[j].branch.isTaken();
    EXPECT_TRUE(differs);
}

TEST(Fuzz, CatchesPlantedBugWithSmallShrunkWitness)
{
    // The ISSUE 4 acceptance criterion, as a unit test: an off-by-one
    // history length must be caught and shrunk below 64 branches, with
    // both artifacts on disk.
    testkit::FuzzOptions options;
    options.seed = 99;
    options.num_streams = 10;
    options.max_branches = 1024;
    options.artifact_dir = tempPath("fuzz-selftest");
    options.metamorphic = false;
    json_t report =
        testkit::runFuzz(options, {testkit::brokenGshareTarget()});
    const json_t &failures = *report.find("failures");
    ASSERT_GT(failures.size(), 0u) << "the planted bug must be found";
    bool small_witness = false;
    for (std::size_t i = 0; i < failures.size(); ++i) {
        const json_t &f = failures[i];
        ASSERT_EQ(f.find("type")->asString(), "differential");
        if (f.find("shrunk_branches")->asUint() < 64) {
            small_witness = true;
            EXPECT_TRUE(std::filesystem::exists(
                f.find("sbbt")->asString()));
            EXPECT_TRUE(std::filesystem::exists(
                f.find("stanza")->asString()));
        }
    }
    EXPECT_TRUE(small_witness) << report.dump(2);
}

TEST(Fuzz, UnknownMetamorphicPredictorIsOneConfigFailure)
{
    testkit::FuzzOptions options;
    options.seed = 5;
    options.num_streams = 2;
    options.max_branches = 128;
    options.artifact_dir = tempPath("fuzz-config");
    options.differential = false;
    options.metamorphic_predictors = {"no-such-predictor"};
    json_t report = testkit::runFuzz(options, {});
    const json_t &failures = *report.find("failures");
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_EQ(failures[0].find("type")->asString(), "config");
}
