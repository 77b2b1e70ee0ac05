/**
 * @file
 * Unit tests of the front-end realism tier (mbp::frontend): BTB geometry,
 * replacement and aliasing edges, RAS overflow/underflow/corruption
 * policies, indirect-target tag collisions, the --frontend spec grammar,
 * the FrontEnd step contract, and the per-class accounting invariant the
 * whole tier is built around — class counters sum exactly to the measured
 * branch count for every roster conditional predictor.
 */
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mbp/frontend/frontend.hpp"
#include "mbp/predictors/roster.hpp"
#include "mbp/sbbt/mem_trace.hpp"
#include "mbp/testkit/oracle.hpp"
#include "mbp/tracegen/adversarial.hpp"
#include "test_tmp.hpp"

using namespace mbp;
using namespace mbp::frontend;

namespace
{

/** Timing/throughput keys: the only fields allowed to vary run to run. */
bool
isTimingKey(const std::string &key)
{
    return key == "simulation_time" || key == "branches_per_second" ||
           key == "decompressed_bytes" || key == "prefetch_stall_seconds" ||
           key == "trace_load_seconds";
}

json_t
scrubTiming(const json_t &value)
{
    if (value.isObject()) {
        json_t out = json_t::object({});
        for (const auto &[key, member] : value.members()) {
            if (isTimingKey(key))
                continue;
            out[key] = scrubTiming(member);
        }
        return out;
    }
    if (value.isArray()) {
        json_t out = json_t::array();
        for (std::size_t i = 0; i < value.size(); ++i)
            out.push_back(scrubTiming(value[i]));
        return out;
    }
    return value;
}

/** A stream exercising all six branch classes. */
testkit::Events
mixedStream()
{
    testkit::Events events = tracegen::deepRecursion(11, 1200, 20);
    for (tracegen::TraceEvent &ev : tracegen::indirectStorm(12, 1200, 3, 7))
        events.push_back(ev);
    for (tracegen::TraceEvent &ev : tracegen::megamorphicSites(13, 1200, 9))
        events.push_back(ev);
    for (tracegen::TraceEvent &ev : tracegen::aliasingStorm(14, 600, 8))
        events.push_back(ev);
    return events;
}

} // namespace

// ---------------------------------------------------------------------------
// classify

TEST(Classify, EveryOpcodeLandsInItsClass)
{
    EXPECT_EQ(classify(OpCode::condJump()), BranchClass::kConditional);
    EXPECT_EQ(classify(OpCode::jump()), BranchClass::kJumpDirect);
    EXPECT_EQ(classify(OpCode::indJump()), BranchClass::kJumpIndirect);
    EXPECT_EQ(classify(OpCode::call()), BranchClass::kCallDirect);
    EXPECT_EQ(classify(OpCode::indCall()), BranchClass::kCallIndirect);
    EXPECT_EQ(classify(OpCode::ret()), BranchClass::kReturn);
}

// ---------------------------------------------------------------------------
// spec grammar

TEST(FrontEndSpec, EmptySpecIsTheDefaultConfiguration)
{
    FrontEndConfig config;
    std::string error;
    ASSERT_TRUE(parseFrontEndSpec("", config, error)) << error;
    const FrontEndConfig defaults;
    EXPECT_EQ(config.btb.log2_sets, defaults.btb.log2_sets);
    EXPECT_EQ(config.btb.ways, defaults.btb.ways);
    EXPECT_EQ(config.ras.size, defaults.ras.size);
    EXPECT_EQ(config.indirect.index_bits, defaults.indirect.index_bits);
    EXPECT_EQ(config.corrupt_on_mispredict,
              defaults.corrupt_on_mispredict);
}

TEST(FrontEndSpec, FullSpecSetsEveryKnob)
{
    FrontEndConfig config;
    std::string error;
    ASSERT_TRUE(parseFrontEndSpec(
        "btb-sets=64,btb-ways=8,btb-banks=4,btb-tag=9,btb-repl=fifo,"
        "ras=32,ras-overflow=discard,ras-underflow=reuse,"
        "ind-bits=10,ind-tag=7,ind-hist=12,corrupt=on",
        config, error))
        << error;
    EXPECT_EQ(config.btb.log2_sets, 6);
    EXPECT_EQ(config.btb.ways, 8);
    EXPECT_EQ(config.btb.log2_banks, 2);
    EXPECT_EQ(config.btb.tag_bits, 9);
    EXPECT_EQ(config.btb.replacement, Replacement::kFifo);
    EXPECT_EQ(config.ras.size, 32);
    EXPECT_EQ(config.ras.overflow, RasOverflow::kDiscard);
    EXPECT_EQ(config.ras.underflow, RasUnderflow::kReuse);
    EXPECT_EQ(config.indirect.index_bits, 10);
    EXPECT_EQ(config.indirect.tag_bits, 7);
    EXPECT_EQ(config.indirect.history_bits, 12);
    EXPECT_TRUE(config.corrupt_on_mispredict);
}

TEST(FrontEndSpec, ErrorsNameTheOffendingKey)
{
    FrontEndConfig config;
    std::string error;
    EXPECT_FALSE(parseFrontEndSpec("btb-sets=100", config, error));
    EXPECT_NE(error.find("btb-sets"), std::string::npos) << error;

    EXPECT_FALSE(parseFrontEndSpec("no-such-knob=3", config, error));
    EXPECT_NE(error.find("no-such-knob"), std::string::npos) << error;

    EXPECT_FALSE(parseFrontEndSpec("btb-repl=random", config, error));
    EXPECT_NE(error.find("btb-repl"), std::string::npos) << error;

    EXPECT_FALSE(parseFrontEndSpec("ras=abc", config, error));
    EXPECT_NE(error.find("ras"), std::string::npos) << error;
}

TEST(FrontEndSpec, BtbEntryProductIsBounded)
{
    // Parsing only: every knob is in range on its own, and the product
    // (2^28 entries, 8 GiB) is rejected before anything is allocated.
    FrontEndConfig config;
    std::string error;
    EXPECT_FALSE(parseFrontEndSpec("btb-sets=1048576,btb-ways=16,btb-banks=16",
                                   config, error));
    EXPECT_NE(error.find("1048576 x 16 x 16"), std::string::npos) << error;
    EXPECT_NE(error.find(std::to_string(BtbConfig::kMaxEntries)),
              std::string::npos)
        << error;
    EXPECT_EQ(config.btb.log2_sets, FrontEndConfig{}.btb.log2_sets)
        << "a rejected spec leaves the output untouched";

    ASSERT_TRUE(parseFrontEndSpec("btb-sets=1048576,btb-ways=16,btb-banks=1",
                                  config, error))
        << error;
    EXPECT_EQ(config.btb.validate(), "") << "2^24 entries is the bound";
    config.btb.ways = 15;
    config.btb.log2_banks = 1;
    EXPECT_NE(config.btb.validate(), "") << "so is any product above it";
}

TEST(FrontEndSpec, ConstructorRejectsAnOversizedBtb)
{
    // A library caller that fills the BtbConfig by hand, past the
    // 2^24-entry bound no spec string can cross: 2^20 sets x 16 ways x
    // 2 banks is 2^25 entries, a 1 GiB table that zeroing would make
    // resident. The constructor must refuse before sizing anything.
    FrontEndConfig config;
    config.btb.log2_sets = 20;
    config.btb.ways = 16;
    config.btb.log2_banks = 1;
    const std::string expected = config.validate();
    ASSERT_NE(expected, "");

    rusage before{};
    ASSERT_EQ(::getrusage(RUSAGE_SELF, &before), 0);
    try {
        FrontEnd fe(pred::makeByName("gshare"), config);
        ADD_FAILURE() << "an oversized BTB was accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_EQ(e.what(), expected);
    }
    rusage after{};
    ASSERT_EQ(::getrusage(RUSAGE_SELF, &after), 0);
    // ru_maxrss is the peak in KiB: a table that was sized and zeroed,
    // even if freed again, leaves ~1 GiB in it.
    EXPECT_LT(after.ru_maxrss - before.ru_maxrss, 128L * 1024)
        << "the table was allocated before the throw";
}

// ---------------------------------------------------------------------------
// Btb

TEST(BtbTest, MissThenUpdateThenHit)
{
    Btb btb;
    std::uint64_t target = 0;
    EXPECT_FALSE(btb.lookup(0x500000, target));
    btb.update(0x500000, 0x501234);
    ASSERT_TRUE(btb.lookup(0x500000, target));
    EXPECT_EQ(target, 0x501234u);
    // A tag hit refreshes the stored target in place.
    btb.update(0x500000, 0x509999);
    ASSERT_TRUE(btb.lookup(0x500000, target));
    EXPECT_EQ(target, 0x509999u);
    EXPECT_EQ(btb.stats().insertions, 1u);
}

/** First @p count ips that share bank 0/set 0 with pairwise-distinct tags. */
std::vector<std::uint64_t>
sameSetDistinctTags(const Btb &btb, std::size_t count)
{
    std::vector<std::uint64_t> ips;
    for (std::uint64_t ip = 0x500000; ips.size() < count; ip += 4) {
        if (btb.bankOf(ip) != 0 || btb.setOf(ip) != 0)
            continue;
        bool fresh = true;
        for (std::uint64_t other : ips)
            if (btb.tagOf(other) == btb.tagOf(ip))
                fresh = false;
        if (fresh)
            ips.push_back(ip);
    }
    return ips;
}

TEST(BtbTest, LruEvictsTheStaleWayFifoTheOldestInsertion)
{
    BtbConfig config;
    config.log2_sets = 1;
    config.ways = 2;
    config.log2_banks = 0;
    config.tag_bits = 16;

    for (Replacement policy : {Replacement::kLru, Replacement::kFifo}) {
        config.replacement = policy;
        Btb btb(config);
        const auto ips = sameSetDistinctTags(btb, 3);
        btb.update(ips[0], 0xa0); // way 0
        btb.update(ips[1], 0xb0); // way 1, set now full
        btb.update(ips[0], 0xa4); // refresh: bumps the LRU stamp only
        btb.update(ips[2], 0xc0); // needs a victim

        std::uint64_t target = 0;
        if (policy == Replacement::kLru) {
            // The refresh made ips[1] the least recently updated victim.
            EXPECT_TRUE(btb.lookup(ips[0], target));
            EXPECT_EQ(target, 0xa4u);
            EXPECT_FALSE(btb.lookup(ips[1], target));
        } else {
            // FIFO ignores the refresh: ips[0] is the oldest insertion.
            EXPECT_FALSE(btb.lookup(ips[0], target));
            EXPECT_TRUE(btb.lookup(ips[1], target));
            EXPECT_EQ(target, 0xb0u);
        }
        EXPECT_TRUE(btb.lookup(ips[2], target));
        EXPECT_EQ(target, 0xc0u);
        EXPECT_EQ(btb.stats().replacements, 1u);
    }
}

TEST(BtbTest, ASetNeverHoldsMoreThanItsWays)
{
    BtbConfig config;
    config.log2_sets = 1;
    config.ways = 2;
    config.log2_banks = 0;
    Btb btb(config);
    const auto ips = sameSetDistinctTags(btb, 6);
    for (std::uint64_t ip : ips)
        btb.update(ip, ip + 16);
    int valid = 0;
    for (int w = 0; w < config.ways; ++w)
        valid += btb.entryAt(0, 0, w).valid ? 1 : 0;
    EXPECT_EQ(valid, config.ways);
    EXPECT_EQ(btb.stats().insertions, 6u);
    EXPECT_EQ(btb.stats().replacements, 4u);
    // Only the two most recent survivors are resident.
    std::uint64_t target = 0;
    EXPECT_TRUE(btb.lookup(ips[4], target));
    EXPECT_TRUE(btb.lookup(ips[5], target));
    EXPECT_FALSE(btb.lookup(ips[0], target));
}

// ---------------------------------------------------------------------------
// Ras

TEST(RasTest, WrapOverflowOverwritesTheOldestEntry)
{
    RasConfig config;
    config.size = 2;
    Ras ras(config);
    ras.push(0xa);
    ras.push(0xb);
    ras.push(0xc); // wraps over 0xa
    EXPECT_EQ(ras.peek(), 0xcu);
    EXPECT_EQ(ras.pop(), 0xcu);
    EXPECT_EQ(ras.pop(), 0xbu);
    EXPECT_EQ(ras.pop(), 0u) << "underflow with kZero predicts 0";
    EXPECT_EQ(ras.stats().overflows, 1u);
    EXPECT_EQ(ras.stats().underflows, 1u);
}

TEST(RasTest, DiscardOverflowDropsTheNewEntry)
{
    RasConfig config;
    config.size = 2;
    config.overflow = RasOverflow::kDiscard;
    Ras ras(config);
    ras.push(0xa);
    ras.push(0xb);
    ras.push(0xc); // discarded
    EXPECT_EQ(ras.peek(), 0xbu);
    EXPECT_EQ(ras.pop(), 0xbu);
    EXPECT_EQ(ras.pop(), 0xau);
    EXPECT_EQ(ras.stats().overflows, 1u);
}

TEST(RasTest, ReuseUnderflowRepredictsTheLastPop)
{
    RasConfig config;
    config.size = 2;
    config.underflow = RasUnderflow::kReuse;
    Ras ras(config);
    ras.push(0xa);
    EXPECT_EQ(ras.pop(), 0xau);
    EXPECT_EQ(ras.peek(), 0xau) << "empty peek reuses the last pop";
    EXPECT_EQ(ras.pop(), 0xau);
    EXPECT_EQ(ras.stats().underflows, 1u);
}

TEST(RasTest, CorruptionPushesButCountsSeparately)
{
    Ras ras;
    ras.corrupt(0xdead);
    EXPECT_EQ(ras.peek(), 0xdeadu);
    EXPECT_EQ(ras.stats().corruptions, 1u);
    EXPECT_EQ(ras.stats().pushes, 0u);
}

// ---------------------------------------------------------------------------
// IndirectTarget

TEST(IndirectTest, PathHistoryDisambiguatesASite)
{
    IndirectTarget table;
    std::uint64_t target = 0;
    EXPECT_FALSE(table.lookup(0x500040, target));
    table.update(0x500040, 0x600000);
    ASSERT_TRUE(table.lookup(0x500040, target));
    EXPECT_EQ(target, 0x600000u);
    // A different path history selects a different entry for the same ip.
    const std::uint64_t index_before = table.indexOf(0x500040);
    table.trackOutcome(true);
    EXPECT_NE(table.history(), 0u);
    EXPECT_NE(table.indexOf(0x500040), index_before);
}

TEST(IndirectTest, PartialTagsAliasByConstruction)
{
    IndirectConfig config;
    config.index_bits = 2;
    config.tag_bits = 1;
    config.history_bits = 0;
    IndirectTarget table(config);
    // Find two sites sharing index and partial tag: a false hit.
    std::uint64_t a = 0x500000, b = 0;
    for (std::uint64_t ip = a + 4; b == 0; ip += 4)
        if (table.indexOf(ip) == table.indexOf(a) &&
            table.tagOf(ip) == table.tagOf(a))
            b = ip;
    table.update(a, 0x612340);
    std::uint64_t target = 0;
    ASSERT_TRUE(table.lookup(b, target)) << "aliased site must false-hit";
    EXPECT_EQ(target, 0x612340u);
    // And a same-index different-tag site evicts (re-allocates).
    std::uint64_t c = 0;
    for (std::uint64_t ip = a + 4; c == 0; ip += 4)
        if (table.indexOf(ip) == table.indexOf(a) &&
            table.tagOf(ip) != table.tagOf(a))
            c = ip;
    table.update(c, 0x655550);
    EXPECT_FALSE(table.lookup(a, target));
    EXPECT_EQ(table.stats().allocations, 2u);
}

// ---------------------------------------------------------------------------
// FrontEnd step contract

TEST(FrontEndTest, CallReturnPairUsesTheRas)
{
    FrontEnd fe(pred::makeByName("bimodal"));
    const Branch call{0x500000, 0x600000, OpCode::call(), true};
    const Branch ret{0x600040, 0x500004, OpCode::ret(), true};

    StepResult s = fe.step(call, true);
    EXPECT_EQ(s.cls, BranchClass::kCallDirect);
    EXPECT_TRUE(s.taken_predicted);
    EXPECT_EQ(s.target_predicted, 0u) << "cold BTB predicts no target";

    s = fe.step(ret, true);
    EXPECT_EQ(s.cls, BranchClass::kReturn);
    EXPECT_EQ(s.target_predicted, 0x500004u)
        << "the return must peek the call's fall-through";

    // Second execution of the call hits the BTB.
    s = fe.step(call, true);
    EXPECT_EQ(s.target_predicted, 0x600000u);

    EXPECT_EQ(fe.classCounts(BranchClass::kCallDirect).count, 2u);
    EXPECT_EQ(fe.classCounts(BranchClass::kCallDirect)
                  .target_mispredictions,
              1u);
    EXPECT_EQ(fe.classCounts(BranchClass::kReturn).target_mispredictions,
              0u);
    EXPECT_EQ(fe.totalCounted(), 3u);
}

TEST(FrontEndTest, UnmeasuredStepsUpdateButDoNotCount)
{
    FrontEnd fe(pred::makeByName("bimodal"));
    const Branch call{0x500000, 0x600000, OpCode::call(), true};
    fe.step(call, false);
    EXPECT_EQ(fe.totalCounted(), 0u);
    // ... but the structures learned from it.
    StepResult s = fe.step(call, true);
    EXPECT_EQ(s.target_predicted, 0x600000u);
    EXPECT_EQ(fe.totalCounted(), 1u);
}

TEST(FrontEndTest, StorageComponentsComposeTheStructures)
{
    FrontEnd fe(pred::makeByName("gshare"));
    auto components = fe.storage_components();
    ASSERT_TRUE(components.has_value());
    EXPECT_EQ(components->name, "frontend");
    EXPECT_EQ(components->totalBits(),
              fe.btb().storageComponents().totalBits() +
                  fe.ras().storageComponents().totalBits() +
                  fe.indirect().storageComponents().totalBits() +
                  pred::makeByName("gshare")->storage_components()
                      ->totalBits());
}

// ---------------------------------------------------------------------------
// frontend::simulate

class FrontEndSimTest : public testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        trace_path_ = new std::string(mbp::test::tempDir() +
                                      "/frontend_test.sbbt");
        events_ = new testkit::Events(mixedStream());
        ASSERT_EQ(testkit::writeSbbtFile(*events_, *trace_path_), "");
    }

    static void
    TearDownTestSuite()
    {
        std::remove(trace_path_->c_str());
        delete trace_path_;
        delete events_;
        trace_path_ = nullptr;
        events_ = nullptr;
    }

    static std::string *trace_path_;
    static testkit::Events *events_;
};

std::string *FrontEndSimTest::trace_path_ = nullptr;
testkit::Events *FrontEndSimTest::events_ = nullptr;

TEST_F(FrontEndSimTest, ClassCountersSumToTotalForEveryRosterPredictor)
{
    for (const std::string &name : pred::rosterNames()) {
        FrontEnd fe(pred::makeByName(name));
        SimArgs args;
        args.trace_path = *trace_path_;
        json_t doc = frontend::simulate(fe, args);
        ASSERT_FALSE(doc.contains("error")) << name << ": " << doc.dump(2);
        const json_t &report = *doc.find("frontend");
        const std::uint64_t total =
            report.find("rollups")->find("total_branches")->asUint();
        EXPECT_EQ(total, events_->size())
            << name << ": every stream branch is measured with warmup 0";
        std::uint64_t class_sum = 0;
        for (const auto &[cls, counters] : report.find("classes")->members())
            class_sum += counters.find("count")->asUint();
        EXPECT_EQ(class_sum, total)
            << name << ": class counters must partition the branch count";
    }
}

/** A conditional predictor that declares no storage. */
struct UndeclaredStorage : Predictor
{
    bool predict(std::uint64_t) override { return true; }
    void train(const Branch &) override {}
    void track(const Branch &) override {}
};

TEST_F(FrontEndSimTest, UndeclaredConditionalLeavesStorageUnreported)
{
    // The composite rule: a front end around a predictor that declares
    // nothing reports null, as simulate() does for the predictor alone.
    FrontEnd fe(std::make_unique<UndeclaredStorage>());
    EXPECT_FALSE(fe.storage_components().has_value());
    SimArgs args;
    args.trace_path = *trace_path_;
    json_t doc = frontend::simulate(fe, args);
    ASSERT_FALSE(doc.contains("error")) << doc.dump(2);
    const json_t *bits =
        doc.find("metadata")->find("predictor")->find("storage_bits");
    ASSERT_NE(bits, nullptr);
    EXPECT_TRUE(bits->isNull()) << bits->dump();

    UndeclaredStorage alone;
    json_t alone_doc = mbp::simulate(alone, args);
    EXPECT_TRUE(alone_doc.find("metadata")
                    ->find("predictor")
                    ->find("storage_bits")
                    ->isNull());
}

TEST_F(FrontEndSimTest, ReportIsSourceInvariantStreamingVsArena)
{
    FrontEnd streaming_fe(pred::makeByName("gshare"));
    FrontEnd arena_fe(pred::makeByName("gshare"));
    SimArgs streaming_args;
    streaming_args.trace_path = *trace_path_;
    streaming_args.warmup_instr = 1000;
    SimArgs arena_args = streaming_args;
    arena_args.in_memory = true;

    json_t streaming = frontend::simulate(streaming_fe, streaming_args);
    json_t arena = frontend::simulate(arena_fe, arena_args);
    ASSERT_FALSE(streaming.contains("error")) << streaming.dump(2);
    ASSERT_FALSE(arena.contains("error")) << arena.dump(2);
    EXPECT_EQ(scrubTiming(streaming).dump(2), scrubTiming(arena).dump(2));
}

TEST_F(FrontEndSimTest, ReportIsIdenticalMappedVsDecodedArena)
{
    std::string error;
    auto decoded = sbbt::MemTrace::load(*trace_path_, {}, &error);
    ASSERT_NE(decoded, nullptr) << error;
    const std::string sidecar = mbp::test::tempDir() + "/frontend_test.sbbta";
    ASSERT_TRUE(decoded->writeArena(sidecar, 0, &error)) << error;
    auto mapped = sbbt::MemTrace::mapFile(sidecar, &error);
    ASSERT_NE(mapped, nullptr) << error;
    ASSERT_TRUE(mapped->mapped());

    FrontEnd decoded_fe(pred::makeByName("tage"));
    FrontEnd mapped_fe(pred::makeByName("tage"));
    SimArgs decoded_args;
    decoded_args.trace_path = *trace_path_;
    decoded_args.preloaded = decoded;
    SimArgs mapped_args = decoded_args;
    mapped_args.preloaded = mapped;

    json_t decoded_doc = frontend::simulate(decoded_fe, decoded_args);
    json_t mapped_doc = frontend::simulate(mapped_fe, mapped_args);
    ASSERT_FALSE(decoded_doc.contains("error")) << decoded_doc.dump(2);
    ASSERT_FALSE(mapped_doc.contains("error")) << mapped_doc.dump(2);
    EXPECT_EQ(scrubTiming(decoded_doc).dump(2),
              scrubTiming(mapped_doc).dump(2));
    std::remove(sidecar.c_str());
}

/** What one front-end run showed: the frontend report, the direction
 *  counts and statistics, and every conditional's direction guess. */
struct FrontEndRun
{
    json_t report;
    std::uint64_t simulation_instr = 0;
    std::uint64_t mispredictions = 0;
    json_t predictor_statistics;
    std::vector<bool> guesses;
};

/**
 * frontend::simulate() of @p front_end under @p args, its guesses taken
 * by the prediction hook.
 */
FrontEndRun
blockRun(FrontEnd &front_end, SimArgs args)
{
    FrontEndRun run;
    args.prediction_hook = [&run](const Branch &, bool predicted,
                                  std::uint64_t, bool, std::size_t) {
        run.guesses.push_back(predicted);
    };
    const json_t doc = frontend::simulate(front_end, args);
    EXPECT_FALSE(doc.contains("error")) << doc.dump(2);
    if (doc.contains("error"))
        return run;
    run.report = *doc.find("frontend");
    run.simulation_instr =
        doc.find("metadata")->find("simulation_instr")->asUint();
    run.mispredictions =
        doc.find("metrics")->find("mispredictions")->asUint();
    run.predictor_statistics = *doc.find("predictor_statistics");
    return run;
}

/**
 * FrontEnd::step() of @p front_end over @p trace's rows under @p args'
 * window and track rule, the driver's row rules: a row past the limit
 * ends the run, a row at or below the warm-up is not measured. The
 * report's rates are over @p simulation_instr.
 */
FrontEndRun
stepReplay(FrontEnd &front_end, const sbbt::MemTrace &trace,
           const SimArgs &args, std::uint64_t simulation_instr)
{
    FrontEndRun run;
    const std::uint64_t limit =
        args.sim_instr > ~std::uint64_t(0) - args.warmup_instr
            ? ~std::uint64_t(0)
            : args.warmup_instr + args.sim_instr;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const std::uint64_t instr = trace.instrNumber(i);
        if (instr > limit)
            break;
        const Branch b{trace.ip(i), trace.target(i), trace.opcode(i),
                       trace.taken(i)};
        const bool measured = instr > args.warmup_instr;
        const StepResult r =
            front_end.step(b, measured, !args.track_only_conditional);
        if (!b.isConditional())
            continue;
        run.guesses.push_back(r.taken_predicted);
        if (measured && r.taken_predicted != b.isTaken())
            ++run.mispredictions;
    }
    run.simulation_instr = simulation_instr;
    run.report = front_end.reportJson(simulation_instr);
    run.predictor_statistics = front_end.execution_stats();
    return run;
}

TEST_F(FrontEndSimTest, BlockPathMatchesStepReplayForEveryRosterPredictor)
{
    std::string error;
    auto trace = sbbt::MemTrace::load(*trace_path_, {}, &error);
    ASSERT_NE(trace, nullptr) << error;
    ASSERT_GT(trace->size(), std::size_t{4096})
        << "the stream must span more than one block";
    const std::uint64_t instructions =
        trace->instrNumber(trace->size() - 1);

    FrontEndConfig small;
    ASSERT_TRUE(parseFrontEndSpec(
        "btb-sets=16,btb-ways=3,btb-banks=2,btb-tag=6,btb-repl=fifo,"
        "ras=4,ras-overflow=discard,ras-underflow=reuse,"
        "ind-bits=5,ind-tag=4,ind-hist=7,corrupt=on",
        small, error))
        << error;
    const std::vector<std::pair<const char *, FrontEndConfig>> configs = {
        {"default", FrontEndConfig{}}, {"small", small}};

    struct Window
    {
        const char *name;
        std::uint64_t warmup;
        std::uint64_t sim;
        bool track_only_conditional;
    };
    const Window windows[] = {
        {"whole", 0, ~std::uint64_t(0), false},
        {"warmup+limit", instructions / 4, instructions / 2, false},
        {"track_only_conditional", 0, ~std::uint64_t(0), true},
    };

    for (const std::string &name : pred::rosterNames()) {
        for (const auto &[config_name, config] : configs) {
            for (const Window &w : windows) {
                SimArgs args;
                args.trace_path = *trace_path_;
                args.warmup_instr = w.warmup;
                args.sim_instr = w.sim;
                args.track_only_conditional = w.track_only_conditional;
                const std::string where =
                    name + " / " + config_name + " / " + w.name;

                std::vector<FrontEndRun> runs;
                for (const bool in_memory : {false, true}) {
                    SimArgs source_args = args;
                    source_args.in_memory = in_memory;
                    FrontEnd fe(pred::fusedKernelByName(name), config);
                    runs.push_back(blockRun(fe, source_args));
                }
                FrontEnd stepped(pred::makeByName(name), config);
                const FrontEndRun replay = stepReplay(
                    stepped, *trace, args, runs[0].simulation_instr);
                ASSERT_GT(replay.guesses.size(), 0u) << where;

                for (const FrontEndRun &run : runs) {
                    EXPECT_EQ(run.report.dump(2), replay.report.dump(2))
                        << where;
                    EXPECT_EQ(run.mispredictions, replay.mispredictions)
                        << where;
                    EXPECT_EQ(run.predictor_statistics.dump(2),
                              replay.predictor_statistics.dump(2))
                        << where;
                    EXPECT_TRUE(run.guesses == replay.guesses) << where;
                }
            }
        }
    }
}

TEST_F(FrontEndSimTest, AKernelRunTwiceStartsItsSiteKeysOver)
{
    // Site ids are dense per run, so a kernel that serves a second run
    // over another trace must not reuse the first run's per-site keys.
    const std::string other = mbp::test::tempDir() + "/frontend_other.sbbt";
    testkit::Events events = tracegen::megamorphicSites(21, 900, 5);
    for (tracegen::TraceEvent &ev : tracegen::deepRecursion(22, 900, 9))
        events.push_back(ev);
    ASSERT_EQ(testkit::writeSbbtFile(events, other), "");

    FrontEndConfig config;
    config.corrupt_on_mispredict = true;
    FrontEnd run_twice(pred::fusedKernelByName("gshare"), config);
    FrontEnd stepped(pred::makeByName("gshare"), config);
    for (const std::string &path : {*trace_path_, other}) {
        SimArgs args;
        args.trace_path = path;
        const json_t doc = detail::simulateKernel(run_twice, args);
        ASSERT_FALSE(doc.contains("error")) << doc.dump(2);
        std::string error;
        auto trace = sbbt::MemTrace::load(path, {}, &error);
        ASSERT_NE(trace, nullptr) << error;
        stepReplay(stepped, *trace, args, 0);
    }
    EXPECT_EQ(run_twice.reportJson(1).dump(2), stepped.reportJson(1).dump(2));
    EXPECT_EQ(run_twice.execution_stats().dump(2),
              stepped.execution_stats().dump(2));
    std::remove(other.c_str());
}

TEST_F(FrontEndSimTest, FusedDirectionKernelMatchesTheVirtualPredictor)
{
    FrontEndConfig small;
    std::string error;
    ASSERT_TRUE(parseFrontEndSpec("btb-sets=8,btb-ways=2,ras=4,corrupt=on",
                                  small, error))
        << error;
    for (const std::string &name : pred::rosterNames()) {
        for (const FrontEndConfig &config : {FrontEndConfig{}, small}) {
            SimArgs args;
            args.trace_path = *trace_path_;
            args.in_memory = true;
            FrontEnd fused(pred::fusedKernelByName(name), config);
            FrontEnd virtual_fe(pred::makeByName(name), config);
            const json_t a = frontend::simulate(fused, args);
            const json_t b = frontend::simulate(virtual_fe, args);
            ASSERT_FALSE(a.contains("error")) << name << ": " << a.dump(2);
            EXPECT_EQ(scrubTiming(a).dump(2), scrubTiming(b).dump(2))
                << name;
        }
    }
}

/** The names of @p object's members, in order. */
std::vector<std::string>
keysOf(const json_t &object)
{
    std::vector<std::string> keys;
    for (const auto &[key, member] : object.members())
        keys.push_back(key);
    return keys;
}

/** @p object without its member @p drop. */
json_t
without(const json_t &object, const std::string &drop)
{
    json_t out = json_t::object({});
    for (const auto &[key, member] : object.members()) {
        if (key != drop)
            out[key] = member;
    }
    return out;
}

TEST_F(FrontEndSimTest, SimulateIsTheKernelDocumentPlusItsSection)
{
    // A FrontEnd is a BlockKernel: simulate()'s document is the driver's
    // one-kernel document, unranked, under the frontend simulator's name
    // and with the frontend section last.
    SimArgs whole;
    whole.trace_path = *trace_path_;
    SimArgs window = whole;
    window.warmup_instr = 2000;
    window.sim_instr = 9000;
    for (const std::string &name : pred::rosterNames()) {
        for (const SimArgs &args : {whole, window}) {
            FrontEnd simulated(pred::makeByName(name));
            FrontEnd kernel(pred::makeByName(name));
            const json_t doc = frontend::simulate(simulated, args);
            ASSERT_FALSE(doc.contains("error")) << name << ": " << doc.dump(2);
            EXPECT_EQ(keysOf(doc).back(), "frontend") << name;
            json_t as_kernel = without(doc, "frontend");
            as_kernel["metadata"]["simulator"] = detail::kStdSimulatorName;
            SimArgs unranked = args;
            unranked.collect_most_failed = false;
            EXPECT_EQ(scrubTiming(as_kernel).dump(2),
                      scrubTiming(detail::simulateKernel(kernel, unranked))
                          .dump(2))
                << name;
        }
    }
}

TEST_F(FrontEndSimTest, SimulateManySuffixesSections)
{
    FrontEnd a(pred::makeByName("bimodal"));
    FrontEnd b(pred::makeByName("gshare"));
    SimArgs args;
    args.trace_path = *trace_path_;
    json_t doc = frontend::simulateMany({&a, &b}, args);
    ASSERT_FALSE(doc.contains("error")) << doc.dump(2);
    EXPECT_NE(doc.find("frontend_0"), nullptr);
    EXPECT_NE(doc.find("frontend_1"), nullptr);
    EXPECT_NE(doc.find("metrics")->find("mpki_0"), nullptr);
    EXPECT_NE(doc.find("metrics")->find("mpki_1"), nullptr);
    // Both front ends saw the same stream: identical class totals.
    const std::uint64_t t0 = doc.find("frontend_0")
                                 ->find("rollups")
                                 ->find("total_branches")
                                 ->asUint();
    const std::uint64_t t1 = doc.find("frontend_1")
                                 ->find("rollups")
                                 ->find("total_branches")
                                 ->asUint();
    EXPECT_EQ(t0, t1);
    EXPECT_EQ(t0, events_->size());

    // compare()'s layout, keys grouped by stem, then the sections.
    EXPECT_EQ(keysOf(doc),
              (std::vector<std::string>{"metadata", "metrics",
                                        "predictor_statistics_0",
                                        "predictor_statistics_1",
                                        "frontend_0", "frontend_1"}));
    const std::vector<std::string> metadata = keysOf(*doc.find("metadata"));
    EXPECT_EQ(std::vector<std::string>(metadata.end() - 2, metadata.end()),
              (std::vector<std::string>{"predictor_0", "predictor_1"}));
    const std::vector<std::string> metrics = keysOf(*doc.find("metrics"));
    EXPECT_EQ(std::vector<std::string>(metrics.begin(), metrics.begin() + 6),
              (std::vector<std::string>{"mpki_0", "mpki_1",
                                        "mispredictions_0",
                                        "mispredictions_1", "accuracy_0",
                                        "accuracy_1"}));
    // Every value is the one simulate() gives that front end alone.
    FrontEnd fresh_a(pred::makeByName("bimodal"));
    FrontEnd fresh_b(pred::makeByName("gshare"));
    FrontEnd *const fresh[] = {&fresh_a, &fresh_b};
    for (std::size_t k = 0; k < 2; ++k) {
        const json_t one = frontend::simulate(*fresh[k], args);
        const std::string suffix = "_" + std::to_string(k);
        EXPECT_EQ(doc.find("metadata")->find("predictor" + suffix)->dump(),
                  one.find("metadata")->find("predictor")->dump());
        for (const char *stem : {"mpki", "mispredictions", "accuracy"})
            EXPECT_EQ(doc.find("metrics")->find(stem + suffix)->dump(),
                      one.find("metrics")->find(stem)->dump())
                << stem << suffix;
        EXPECT_EQ(doc.find("predictor_statistics" + suffix)->dump(),
                  one.find("predictor_statistics")->dump());
        EXPECT_EQ(doc.find("frontend" + suffix)->dump(),
                  one.find("frontend")->dump());
    }

    // No front end, or a null one, is an error document, not a run.
    const auto errorDoc = [&](const char *simulator, const char *message) {
        return json_t::object({
            {"metadata",
             json_t::object({{"simulator", simulator},
                             {"version", kMbpVersion},
                             {"trace", *trace_path_}})},
            {"error", message},
        });
    };
    EXPECT_EQ(frontend::simulateMany({}, args).dump(2),
              errorDoc(kFrontEndMultiSimulatorName,
                       "no front ends to simulate")
                  .dump(2));
    EXPECT_EQ(frontend::simulateMany({&a, nullptr}, args).dump(2),
              errorDoc(kFrontEndMultiSimulatorName, "null front end")
                  .dump(2));
    // simulateEach's entries are simulate() documents, so they carry its
    // simulator name; a null entry fails every entry, not only its own.
    const std::vector<json_t> each = frontend::simulateEach({&a, nullptr}, args);
    ASSERT_EQ(each.size(), 2u);
    for (const json_t &entry : each)
        EXPECT_EQ(entry.dump(2),
                  errorDoc(kFrontEndSimulatorName, "null front end").dump(2));
}
