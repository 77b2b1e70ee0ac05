/**
 * @file
 * Tests for the examples library (paper Table II): each predictor learns
 * the behaviors it was designed for, composition works through the
 * train/track split, and everything is deterministic.
 */
#include "mbp/predictors/all.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mbp/tracegen/generator.hpp"

using namespace mbp;
using namespace mbp::pred;

namespace
{

/** Drives a predictor over events with the simulator's call discipline. */
double
mpkiOn(Predictor &p, const std::vector<tracegen::TraceEvent> &events)
{
    std::uint64_t instr = 0, misp = 0;
    for (const auto &ev : events) {
        instr += ev.instr_gap + 1;
        if (ev.branch.isConditional()) {
            if (p.predict(ev.branch.ip()) != ev.branch.isTaken())
                ++misp;
            p.train(ev.branch);
        }
        p.track(ev.branch);
    }
    return double(misp) / (double(instr) / 1000.0);
}

/** Runs a fixed outcome sequence at one branch address. */
std::uint64_t
mispredictionsOnSequence(Predictor &p, const std::vector<bool> &outcomes,
                         std::uint64_t ip = 0x4000, std::uint64_t skip = 0)
{
    std::uint64_t misp = 0;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        bool guess = p.predict(ip);
        if (i >= skip && guess != outcomes[i])
            ++misp;
        Branch b{ip, ip + 64, OpCode::condJump(), outcomes[i]};
        p.train(b);
        p.track(b);
    }
    return misp;
}

const std::vector<tracegen::TraceEvent> &
sharedWorkload()
{
    static const std::vector<tracegen::TraceEvent> events = [] {
        tracegen::WorkloadSpec spec;
        spec.seed = 42;
        spec.num_instr = 4'000'000;
        return tracegen::generateAll(spec);
    }();
    return events;
}

} // namespace

// ---------------------------------------------------------------------
// Single-predictor learning behaviors
// ---------------------------------------------------------------------

TEST(BimodalPred, LearnsBias)
{
    Bimodal<10> p;
    std::vector<bool> outcomes(200, true);
    outcomes[50] = false; // one anomaly must not flip the prediction
    EXPECT_LE(mispredictionsOnSequence(p, outcomes, 0x4000, 2), 2u);
}

TEST(BimodalPred, CannotLearnAlternation)
{
    Bimodal<10> p;
    std::vector<bool> outcomes;
    for (int i = 0; i < 400; ++i)
        outcomes.push_back(i % 2 == 0);
    // An alternating branch defeats a 2-bit counter: ~50% mispredictions.
    EXPECT_GT(mispredictionsOnSequence(p, outcomes), 150u);
}

TEST(GsharePred, LearnsAlternation)
{
    Gshare<8, 12> p;
    std::vector<bool> outcomes;
    for (int i = 0; i < 400; ++i)
        outcomes.push_back(i % 2 == 0);
    // After warm-up the history disambiguates the two phases perfectly.
    EXPECT_LE(mispredictionsOnSequence(p, outcomes, 0x4000, 50), 2u);
}

TEST(GsharePred, LearnsShortPatterns)
{
    Gshare<12, 14> p;
    std::vector<bool> outcomes;
    for (int i = 0; i < 2000; ++i)
        outcomes.push_back(i % 5 < 2); // pattern 11000 repeating
    EXPECT_LE(mispredictionsOnSequence(p, outcomes, 0x4000, 200), 5u);
}

TEST(TwoLevelPred, PAsLearnsPerBranchPattern)
{
    PAs<10, 10, 6> p;
    // Two interleaved branches with different short patterns.
    std::uint64_t misp = 0;
    for (int i = 0; i < 3000; ++i) {
        std::uint64_t ip = (i % 2 == 0) ? 0x4000 : 0x8000;
        bool outcome = (i % 2 == 0) ? (i / 2) % 3 == 0 : (i / 2) % 4 != 0;
        bool guess = p.predict(ip);
        if (i >= 600 && guess != outcome)
            ++misp;
        Branch b{ip, ip + 64, OpCode::condJump(), outcome};
        p.train(b);
        p.track(b);
    }
    EXPECT_LE(misp, 10u);
}

TEST(TwoLevelPred, VariantsProduceDistinctNames)
{
    GAg<> gag;
    GAs<> gas;
    PAg<> pag;
    PAs<> pas;
    SAg<> sag;
    SAp<> sap;
    EXPECT_EQ(gag.metadata_stats().find("name")->asString(),
              "MBPlib TwoLevel GAg");
    EXPECT_EQ(gas.metadata_stats().find("name")->asString(),
              "MBPlib TwoLevel GAs");
    EXPECT_EQ(pag.metadata_stats().find("name")->asString(),
              "MBPlib TwoLevel PAg");
    EXPECT_EQ(pas.metadata_stats().find("name")->asString(),
              "MBPlib TwoLevel PAs");
    EXPECT_EQ(sag.metadata_stats().find("name")->asString(),
              "MBPlib TwoLevel SAg");
    EXPECT_EQ(sap.metadata_stats().find("name")->asString(),
              "MBPlib TwoLevel SAp");
}

TEST(GskewPred, SurvivesAliasingBetterThanGshare)
{
    // Hammer many branches into small tables: skewing should de-alias.
    Gshare<10, 10> gshare;
    Gskew2bc<10, 10> gskew;
    auto run = [](Predictor &p) {
        std::uint64_t misp = 0;
        for (int i = 0; i < 60000; ++i) {
            std::uint64_t ip = 0x4000 + 16 * (i % 97);
            bool outcome = (ip / 16) % 2 == 0;
            if (p.predict(ip) != outcome && i > 10000)
                ++misp;
            Branch b{ip, ip + 64, OpCode::condJump(), outcome};
            p.train(b);
            p.track(b);
        }
        return misp;
    };
    std::uint64_t misp_gskew = run(gskew);
    std::uint64_t misp_gshare = run(gshare);
    EXPECT_LE(misp_gskew, misp_gshare + 100);
}

TEST(PerceptronPred, LearnsBiasAndPattern)
{
    HashedPerceptron<8, 12, 64> p;
    std::vector<bool> outcomes;
    for (int i = 0; i < 4000; ++i)
        outcomes.push_back(i % 7 < 3);
    EXPECT_LE(mispredictionsOnSequence(p, outcomes, 0x4000, 1000), 20u);
}

TEST(TagePred, LearnsLongPeriodPatternGshareCannot)
{
    // Period-40 pattern: beyond a 10-bit gshare history, within TAGE's
    // geometric range.
    std::vector<bool> outcomes;
    for (int i = 0; i < 30000; ++i)
        outcomes.push_back(i % 40 == 0);
    Gshare<10, 14> gshare;
    Tage tage;
    std::uint64_t misp_gshare =
        mispredictionsOnSequence(gshare, outcomes, 0x4000, 10000);
    std::uint64_t misp_tage =
        mispredictionsOnSequence(tage, outcomes, 0x4000, 10000);
    EXPECT_LT(misp_tage * 3, misp_gshare + 30);
}

TEST(TagePred, CustomGeometryIsRespected)
{
    Tage::Config config = Tage::Config::geometric(4, 8, 64, 9, 8);
    config.log_bimodal_size = 12;
    Tage tage(config);
    json_t md = tage.metadata_stats();
    EXPECT_EQ(md.find("num_tagged_tables")->asUint(), 4u);
    EXPECT_EQ(md.find("log_bimodal_size")->asInt(), 12);
    const json_t &tables = *md.find("tables");
    ASSERT_EQ(tables.size(), 4u);
    // History lengths strictly increasing, first == 8, last == 64.
    EXPECT_EQ(tables[0].find("history_length")->asInt(), 8);
    EXPECT_EQ(tables[3].find("history_length")->asInt(), 64);
    for (std::size_t t = 1; t < 4; ++t)
        EXPECT_GT(tables[t].find("history_length")->asInt(),
                  tables[t - 1].find("history_length")->asInt());
}

TEST(TagePred, AllocationStatisticsExposed)
{
    Tage tage;
    mpkiOn(tage, sharedWorkload());
    json_t stats = tage.execution_stats();
    EXPECT_GT(stats.find("allocations")->asUint(), 0u);
    EXPECT_GT(stats.find("provider_hits")->asUint(), 0u);
}

TEST(BatagePred, LearnsLongPeriodPattern)
{
    std::vector<bool> outcomes;
    for (int i = 0; i < 30000; ++i)
        outcomes.push_back(i % 40 == 0);
    Batage batage;
    std::uint64_t misp =
        mispredictionsOnSequence(batage, outcomes, 0x4000, 10000);
    EXPECT_LT(misp, 600u);
}

TEST(BatagePred, CatStaysBoundedAndStatsExposed)
{
    Batage batage;
    mpkiOn(batage, sharedWorkload());
    json_t stats = batage.execution_stats();
    EXPECT_GT(stats.find("allocations")->asUint(), 0u);
    EXPECT_GE(stats.find("final_cat")->asInt(), 0);
    EXPECT_LE(stats.find("final_cat")->asInt(), 65535);
}

// ---------------------------------------------------------------------
// Whole-workload ordering: the hierarchy the field expects
// ---------------------------------------------------------------------

TEST(PredictorHierarchy, HistoryBeatsBimodalBeatsNothing)
{
    const auto &events = sharedWorkload();
    AlwaysTaken static_taken;
    Bimodal<16> bimodal;
    Gshare<15, 17> gshare;
    Tage tage;
    Batage batage;
    HashedPerceptron<8, 12, 128> perceptron;
    Gskew2bc<17, 16> gskew;

    double mpki_static = mpkiOn(static_taken, events);
    double mpki_bimodal = mpkiOn(bimodal, events);
    double mpki_gshare = mpkiOn(gshare, events);
    double mpki_tage = mpkiOn(tage, events);
    double mpki_batage = mpkiOn(batage, events);
    double mpki_perceptron = mpkiOn(perceptron, events);
    double mpki_gskew = mpkiOn(gskew, events);

    EXPECT_LE(mpki_bimodal, mpki_static * 1.02);
    EXPECT_LT(mpki_gshare, mpki_bimodal * 0.95);
    EXPECT_LT(mpki_gskew, mpki_gshare);
    EXPECT_LT(mpki_tage, mpki_gshare * 0.75);
    EXPECT_LT(mpki_batage, mpki_gshare * 0.85);
    EXPECT_LT(mpki_perceptron, mpki_gshare * 0.8);
}

// ---------------------------------------------------------------------
// Composition through the train/track split (paper §VI-D)
// ---------------------------------------------------------------------

namespace
{

/** Counts interface calls; predicts a constant. */
class CountingPredictor : public Predictor
{
  public:
    explicit CountingPredictor(bool answer) : answer_(answer) {}

    bool
    predict(std::uint64_t) override
    {
        ++predicts;
        return answer_;
    }
    void
    train(const Branch &b) override
    {
        ++trains;
        last_train_outcome = b.isTaken();
    }
    void track(const Branch &) override { ++tracks; }

    int predicts = 0, trains = 0, tracks = 0;
    bool last_train_outcome = false;

  private:
    bool answer_;
};

} // namespace

TEST(Tournament, TrainsMetaOnlyOnDisagreement)
{
    auto meta = std::make_unique<CountingPredictor>(true);
    auto *meta_raw = meta.get();
    auto bp0 = std::make_unique<CountingPredictor>(true);
    auto bp1 = std::make_unique<CountingPredictor>(true);
    TournamentPred t(std::move(meta), std::move(bp0), std::move(bp1));

    Branch b{0x4000, 0x4040, OpCode::condJump(), true};
    t.predict(b.ip());
    t.train(b);
    t.track(b);
    EXPECT_EQ(meta_raw->trains, 0) << "components agreed";

    auto meta2 = std::make_unique<CountingPredictor>(true);
    auto *meta2_raw = meta2.get();
    TournamentPred t2(std::move(meta2),
                      std::make_unique<CountingPredictor>(false),
                      std::make_unique<CountingPredictor>(true));
    t2.predict(b.ip());
    t2.train(b);
    t2.track(b);
    EXPECT_EQ(meta2_raw->trains, 1) << "components disagreed";
    EXPECT_TRUE(meta2_raw->last_train_outcome)
        << "outcome names bp1, which was correct";
    EXPECT_EQ(meta2_raw->tracks, 1) << "meta tracks the program branch";
}

TEST(Tournament, MetaSelectsProvider)
{
    // bp1 always right (predicts taken, outcomes taken), bp0 always wrong.
    TournamentPred t(std::make_unique<Bimodal<8>>(),
                     std::make_unique<CountingPredictor>(false),
                     std::make_unique<CountingPredictor>(true));
    std::vector<bool> outcomes(300, true);
    std::uint64_t misp = mispredictionsOnSequence(t, outcomes, 0x4000, 20);
    EXPECT_LE(misp, 2u) << "the chooser must converge on bp1";
}

TEST(Tournament, PredictIsCachedUntilTrack)
{
    auto bp0 = std::make_unique<CountingPredictor>(true);
    auto *bp0_raw = bp0.get();
    TournamentPred t(std::make_unique<CountingPredictor>(true),
                     std::move(bp0),
                     std::make_unique<CountingPredictor>(true));
    t.predict(0x4000);
    t.predict(0x4000);
    t.predict(0x4000);
    EXPECT_EQ(bp0_raw->predicts, 1) << "repeat predictions hit the cache";
    Branch b{0x4000, 0x4040, OpCode::condJump(), true};
    t.track(b);
    t.predict(0x4000);
    EXPECT_EQ(bp0_raw->predicts, 2) << "track invalidates the cache";
}

TEST(Tournament, BeatsOrMatchesWorstComponent)
{
    const auto &events = sharedWorkload();
    Bimodal<16> bimodal;
    Gshare<15, 16> gshare;
    TournamentPred tournament = makeClassicTournament();
    double mpki_bimodal = mpkiOn(bimodal, events);
    double mpki_gshare = mpkiOn(gshare, events);
    double mpki_tournament = mpkiOn(tournament, events);
    EXPECT_LT(mpki_tournament,
              std::max(mpki_bimodal, mpki_gshare) * 1.02);
}

TEST(Tournament, MetadataDescribesComponents)
{
    TournamentPred t = makeClassicTournament();
    json_t md = t.metadata_stats();
    EXPECT_EQ(md.find("name")->asString(), "MBPlib Tournament");
    ASSERT_NE(md.find("metapredictor"), nullptr);
    ASSERT_NE(md.find("predictor_0"), nullptr);
    ASSERT_NE(md.find("predictor_1"), nullptr);
    EXPECT_EQ(md.find("predictor_1")->find("name")->asString(),
              "MBPlib GShare");
}

// ---------------------------------------------------------------------
// Determinism (paper §VII-C: trace simulators always give the same result)
// ---------------------------------------------------------------------

template <typename P>
class PredictorDeterminism : public testing::Test
{};

using AllPredictors =
    testing::Types<Bimodal<12>, Gshare<12, 14>, GAg<14>, PAs<>, SAp<>,
                   Gskew2bc<12, 12>, HashedPerceptron<6, 10, 64>, Tage,
                   Batage>;
TYPED_TEST_SUITE(PredictorDeterminism, AllPredictors);

TYPED_TEST(PredictorDeterminism, SameTraceSameResult)
{
    tracegen::WorkloadSpec spec;
    spec.seed = 99;
    spec.num_instr = 300'000;
    auto events = tracegen::generateAll(spec);
    TypeParam a;
    TypeParam b;
    EXPECT_DOUBLE_EQ(mpkiOn(a, events), mpkiOn(b, events));
}

TYPED_TEST(PredictorDeterminism, PredictIsRepeatable)
{
    TypeParam p;
    // Prime with some branches.
    tracegen::WorkloadSpec spec;
    spec.seed = 5;
    spec.num_instr = 50'000;
    for (const auto &ev : tracegen::generateAll(spec)) {
        if (ev.branch.isConditional()) {
            p.predict(ev.branch.ip());
            p.train(ev.branch);
        }
        p.track(ev.branch);
    }
    for (std::uint64_t ip : {0x4000ull, 0x5010ull, 0x99999ull}) {
        bool first = p.predict(ip);
        EXPECT_EQ(p.predict(ip), first);
        EXPECT_EQ(p.predict(ip), first);
    }
}

TYPED_TEST(PredictorDeterminism, MetadataHasName)
{
    TypeParam p;
    json_t md = p.metadata_stats();
    ASSERT_NE(md.find("name"), nullptr);
    EXPECT_FALSE(md.find("name")->asString().empty());
}

TEST(TwoLevelPred, PAgSharesOnePatternTable)
{
    // Two branches with identical per-address history patterns train the
    // same global pattern table constructively in PAg.
    PAg<10, 10> pag;
    std::uint64_t misp = 0;
    for (int i = 0; i < 4000; ++i) {
        std::uint64_t ip = (i % 2 == 0) ? 0x4000 : 0x8000;
        bool outcome = (i / 2) % 4 != 0; // same pattern at both sites
        if (pag.predict(ip) != outcome && i > 800)
            ++misp;
        Branch b{ip, ip + 64, OpCode::condJump(), outcome};
        pag.train(b);
        pag.track(b);
    }
    EXPECT_LE(misp, 20u);
}

TEST(TwoLevelPred, GAgIsPurePatternPredictor)
{
    // GAg ignores the branch address entirely: a global periodic stream
    // is learned perfectly no matter how many sites emit it.
    GAg<14> gag;
    std::uint64_t misp = 0;
    Lfsr rng(5);
    for (int i = 0; i < 6000; ++i) {
        std::uint64_t ip = 0x4000 + 16 * (rng.next() % 50);
        bool outcome = i % 3 == 0;
        if (gag.predict(ip) != outcome && i > 2000)
            ++misp;
        Branch b{ip, ip + 64, OpCode::condJump(), outcome};
        gag.train(b);
        gag.track(b);
    }
    EXPECT_LE(misp, 30u);
}

TEST(TwoLevelPred, StorageGrowsWithScopes)
{
    GAg<12> gag;   // one history + one table
    PAg<12, 10> pag; // 1024 histories + one table
    PAs<12, 10, 4> pas; // 1024 histories + 16 tables
    EXPECT_LT(gag.storage_components()->totalBits(),
              pag.storage_components()->totalBits());
    EXPECT_LT(pag.storage_components()->totalBits(),
              pas.storage_components()->totalBits());
}
