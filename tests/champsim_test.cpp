/**
 * @file
 * Tests for champsim-lite: record/file round trips, trace synthesis, the
 * cache hierarchy, front-end structures (BTB/RAS/ITP) and the core model.
 */
#include "champsim/branch_unit.hpp"
#include "champsim/cache.hpp"
#include "champsim/core.hpp"
#include "champsim/trace.hpp"
#include "champsim/trace_synth.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "mbp/predictors/bimodal.hpp"
#include "mbp/predictors/gshare.hpp"
#include "mbp/predictors/static_pred.hpp"
#include "mbp/tracegen/generator.hpp"
#include "test_tmp.hpp"

using namespace champsim;

namespace
{

std::string
tempPath(const std::string &name)
{
    return mbp::test::tempDir() + "/" + name;
}

/** Builds a champsim-lite trace from a synthetic workload. */
std::string
makeTrace(const std::string &name, std::uint64_t seed = 7,
          std::uint64_t instr = 150'000)
{
    mbp::tracegen::WorkloadSpec spec;
    spec.seed = seed;
    spec.num_instr = instr;
    std::string path = tempPath(name);
    TraceWriter writer(path);
    EXPECT_TRUE(writer.ok()) << writer.error();
    SyntheticTraceBuilder builder(writer, SynthConfig{});
    mbp::tracegen::TraceGenerator gen(spec);
    mbp::tracegen::TraceEvent ev;
    while (gen.next(ev))
        EXPECT_TRUE(builder.append(ev.branch, ev.instr_gap));
    EXPECT_TRUE(writer.close());
    return path;
}

} // namespace

TEST(Record, EncodeDecodeRoundTrip)
{
    TraceInstr instr;
    instr.ip = 0x401234;
    instr.branch_target = 0x405678;
    instr.dest_memory = 0x10000040;
    instr.src_memory[0] = 0x80000100;
    instr.src_memory[1] = 0x80000200;
    instr.is_branch = true;
    instr.branch_taken = true;
    instr.branch_opcode = mbp::OpCode::condJump();
    instr.num_src_mem = 2;
    instr.dest_registers[0] = 3;
    instr.src_registers[0] = 25;
    instr.src_registers[3] = 7;

    std::uint8_t bytes[kRecordSize];
    encodeRecord(instr, bytes);
    TraceInstr back;
    decodeRecord(bytes, back);
    EXPECT_EQ(back.ip, instr.ip);
    EXPECT_EQ(back.branch_target, instr.branch_target);
    EXPECT_EQ(back.dest_memory, instr.dest_memory);
    EXPECT_EQ(back.src_memory[0], instr.src_memory[0]);
    EXPECT_EQ(back.src_memory[1], instr.src_memory[1]);
    EXPECT_EQ(back.is_branch, instr.is_branch);
    EXPECT_EQ(back.branch_taken, instr.branch_taken);
    EXPECT_EQ(back.branch_opcode, instr.branch_opcode);
    EXPECT_EQ(back.num_src_mem, instr.num_src_mem);
    EXPECT_EQ(back.dest_registers[0], instr.dest_registers[0]);
    EXPECT_EQ(back.src_registers[0], instr.src_registers[0]);
    EXPECT_EQ(back.src_registers[3], instr.src_registers[3]);
}

TEST(TraceFile, RoundTripCompressed)
{
    std::string path = tempPath("cs.trace.flz");
    {
        TraceWriter writer(path);
        ASSERT_TRUE(writer.ok());
        for (int i = 0; i < 5000; ++i) {
            TraceInstr instr;
            instr.ip = 0x400000 + 4u * unsigned(i);
            instr.is_branch = i % 7 == 0;
            instr.branch_taken = instr.is_branch;
            if (instr.is_branch)
                instr.branch_opcode = mbp::OpCode::condJump();
            ASSERT_TRUE(writer.append(instr));
        }
        ASSERT_TRUE(writer.close());
        EXPECT_EQ(writer.instructionsWritten(), 5000u);
    }
    TraceReader reader(path);
    ASSERT_TRUE(reader.ok());
    TraceInstr instr;
    std::uint64_t n = 0;
    while (reader.next(instr)) {
        ASSERT_EQ(instr.ip, 0x400000 + 4 * n);
        ++n;
    }
    EXPECT_TRUE(reader.error().empty()) << reader.error();
    EXPECT_EQ(n, 5000u);
    std::remove(path.c_str());
}

TEST(Synth, ExpandsGapsExactly)
{
    std::string path = tempPath("synth.trace");
    TraceWriter writer(path);
    SyntheticTraceBuilder builder(writer, SynthConfig{});
    mbp::Branch b1{0x4000, 0x5000, mbp::OpCode::condJump(), true};
    mbp::Branch b2{0x5100, 0x4000, mbp::OpCode::jump(), true};
    ASSERT_TRUE(builder.append(b1, 5));
    ASSERT_TRUE(builder.append(b2, 0));
    ASSERT_TRUE(writer.close());

    TraceReader reader(path);
    TraceInstr instr;
    int count = 0, branches = 0;
    while (reader.next(instr)) {
        ++count;
        if (instr.is_branch) {
            ++branches;
            if (branches == 1) {
                EXPECT_EQ(count, 6) << "5 fillers then the branch";
                EXPECT_EQ(instr.ip, 0x4000u);
                EXPECT_EQ(instr.branch_target, 0x5000u);
            } else {
                EXPECT_EQ(count, 7);
                EXPECT_EQ(instr.ip, 0x5100u);
            }
        } else {
            EXPECT_EQ(instr.is_branch, false);
            EXPECT_LT(instr.ip, 0x4000u);
        }
    }
    EXPECT_EQ(count, 7);
    EXPECT_EQ(branches, 2);
    std::remove(path.c_str());
}

TEST(Synth, MemoryMixRoughlyMatchesConfig)
{
    std::string path = tempPath("mix.trace");
    TraceWriter writer(path);
    SynthConfig config;
    config.load_percent = 30;
    config.store_percent = 10;
    SyntheticTraceBuilder builder(writer, config);
    mbp::Branch b{0x400000, 0x400100, mbp::OpCode::condJump(), true};
    for (int i = 0; i < 100; ++i)
        ASSERT_TRUE(builder.append(b, 100));
    ASSERT_TRUE(writer.close());

    TraceReader reader(path);
    TraceInstr instr;
    int loads = 0, stores = 0, fillers = 0;
    while (reader.next(instr)) {
        if (instr.is_branch)
            continue;
        ++fillers;
        if (instr.num_src_mem > 0)
            ++loads;
        if (instr.dest_memory != 0)
            ++stores;
    }
    EXPECT_EQ(fillers, 10000);
    EXPECT_NEAR(loads, 3000, 300);
    EXPECT_NEAR(stores, 1000, 150);
    std::remove(path.c_str());
}

TEST(CacheModel, HitsAfterFill)
{
    CacheConfig config{"L1", 4, 2, 3, 6};
    Cache cache(config, nullptr, 100);
    std::uint64_t first = cache.access(0x1000, 0);
    EXPECT_EQ(first, 0u + 3 + 100) << "cold miss pays memory latency";
    std::uint64_t second = cache.access(0x1008, 10);
    EXPECT_EQ(second, 10u + 3) << "same line hits";
    EXPECT_EQ(cache.accesses(), 2u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(CacheModel, LruEviction)
{
    // 1 set (log2_sets=0), 2 ways.
    CacheConfig config{"tiny", 0, 2, 1, 6};
    Cache cache(config, nullptr, 50);
    cache.access(0x0, 0);    // line A: miss
    cache.access(0x40, 0);   // line B: miss
    cache.access(0x0, 10);   // A again: hit (A is now MRU)
    cache.access(0x80, 20);  // line C: evicts B
    EXPECT_EQ(cache.misses(), 3u);
    cache.access(0x0, 30); // A still resident
    EXPECT_EQ(cache.misses(), 3u);
    cache.access(0x40, 40); // B was evicted: miss again
    EXPECT_EQ(cache.misses(), 4u);
}

TEST(CacheModel, HierarchyChainsLatency)
{
    CacheConfig l2c{"L2", 6, 8, 10, 6};
    CacheConfig l1c{"L1", 4, 4, 2, 6};
    Cache l2(l2c, nullptr, 100);
    Cache l1(l1c, &l2, 0);
    // Cold: L1 miss -> L2 miss -> memory.
    EXPECT_EQ(l1.access(0x5000, 0), 0u + 2 + 10 + 100);
    // L1 hit now.
    EXPECT_EQ(l1.access(0x5000, 200), 200u + 2);
}

TEST(BtbModel, LearnsTargetsAndEvicts)
{
    Btb btb(2, 2); // 4 sets, 2 ways
    EXPECT_EQ(btb.lookup(0x4000), 0u) << "cold miss";
    btb.update(0x4000, 0x5000);
    EXPECT_EQ(btb.lookup(0x4000), 0x5000u);
    btb.update(0x4000, 0x6000);
    EXPECT_EQ(btb.lookup(0x4000), 0x6000u) << "retarget in place";
}

TEST(RasModel, LifoAndBounded)
{
    Ras ras(4);
    ras.push(0x100);
    ras.push(0x200);
    EXPECT_EQ(ras.pop(), 0x200u);
    EXPECT_EQ(ras.pop(), 0x100u);
    EXPECT_EQ(ras.pop(), 0u) << "empty stack";
    for (int i = 0; i < 10; ++i)
        ras.push(0x1000 + std::uint64_t(i));
    EXPECT_EQ(ras.pop(), 0x1009u) << "wraps but keeps the newest";
}

TEST(GshareItpModel, LearnsMonomorphicTarget)
{
    GshareItp itp(10);
    for (int i = 0; i < 10; ++i) {
        itp.update(0x4000, 0x7000);
        itp.track(0x4000, 0x7000);
    }
    EXPECT_EQ(itp.predict(0x4000), 0x7000u);
}

TEST(IttageItpModel, LearnsHistoryDependentTargets)
{
    // A switch whose target alternates with the path: ITTAGE-lite should
    // learn it; a plain last-target table cannot.
    IttageItp ittage;
    GshareItp plain(10); // no history in our index without track pattern
    std::uint64_t wrong_ittage = 0, wrong_plain = 0;
    for (int i = 0; i < 4000; ++i) {
        std::uint64_t target = (i % 2 == 0) ? 0x7000 : 0x8000;
        if (i > 1000) {
            wrong_ittage += ittage.predict(0x4000) != target;
            wrong_plain += plain.predict(0x4000) != target;
        }
        ittage.update(0x4000, target);
        ittage.track(0x4000, target);
        plain.update(0x4000, target);
        plain.track(0x4000, target);
    }
    EXPECT_LT(wrong_ittage * 4, wrong_plain + 100);
}

TEST(CoreModel, ProducesSaneIpc)
{
    std::string path = makeTrace("core_sane.trace", 7);
    mbp::pred::Gshare<12, 14> gshare;
    CoreConfig config;
    Core core(config, gshare);
    CoreStats stats = core.run(path, 150'000);
    ASSERT_TRUE(stats.ok) << stats.error;
    EXPECT_GT(stats.instructions, 100'000u);
    EXPECT_GT(stats.ipc, 0.05);
    EXPECT_LE(stats.ipc, double(config.fetch_width));
    EXPECT_GT(stats.branches, 0u);
    EXPECT_GT(stats.l1d_misses, 0u);
    std::remove(path.c_str());
}

TEST(CoreModel, BetterPredictorMeansHigherIpc)
{
    std::string path = makeTrace("core_ipc.trace", 11, 400'000);
    mbp::pred::AlwaysNotTaken bad;
    mbp::pred::Gshare<14, 16> good;
    CoreConfig config;
    Core bad_core(config, bad);
    Core good_core(config, good);
    CoreStats bad_stats = bad_core.run(path, 400'000);
    CoreStats good_stats = good_core.run(path, 400'000);
    ASSERT_TRUE(bad_stats.ok && good_stats.ok);
    EXPECT_GT(bad_stats.mpki, good_stats.mpki);
    EXPECT_GT(good_stats.ipc, bad_stats.ipc * 1.05)
        << "mispredictions must cost cycles";
    std::remove(path.c_str());
}

TEST(CoreModel, DeterministicRuns)
{
    std::string path = makeTrace("core_det.trace", 13);
    CoreConfig config;
    mbp::pred::Bimodal<14> p1, p2;
    Core core1(config, p1), core2(config, p2);
    CoreStats a = core1.run(path, 150'000);
    CoreStats b = core2.run(path, 150'000);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.direction_mispredictions, b.direction_mispredictions);
    EXPECT_EQ(a.l1d_misses, b.l1d_misses);
    std::remove(path.c_str());
}

TEST(CoreModel, WarmupWindowing)
{
    std::string path = makeTrace("core_warm.trace", 17, 200'000);
    mbp::pred::Bimodal<14> p;
    CoreConfig config;
    Core core(config, p);
    CoreStats stats = core.run(path, 200'000, 50'000);
    ASSERT_TRUE(stats.ok);
    EXPECT_LE(stats.instructions, 150'001u);
    EXPECT_GT(stats.instructions, 100'000u);
    std::remove(path.c_str());
}

TEST(CoreModel, IttageConfigRuns)
{
    std::string path = makeTrace("core_ittage.trace", 19);
    mbp::pred::Gshare<12, 14> p;
    CoreConfig config;
    config.use_ittage = true;
    Core core(config, p);
    CoreStats stats = core.run(path, 150'000);
    ASSERT_TRUE(stats.ok) << stats.error;
    EXPECT_GT(stats.ipc, 0.05);
    std::remove(path.c_str());
}

TEST(CoreModel, MissingTraceReportsError)
{
    mbp::pred::Bimodal<10> p;
    Core core(CoreConfig{}, p);
    CoreStats stats = core.run("/nonexistent.trace", 1000);
    EXPECT_FALSE(stats.ok);
    EXPECT_FALSE(stats.error.empty());
}

TEST(CacheModel, PrefetchFillsWithoutCountingDemand)
{
    CacheConfig config{"L1", 4, 2, 3, 6};
    Cache cache(config, nullptr, 100);
    cache.prefetch(0x2000, 0);
    EXPECT_EQ(cache.accesses(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_EQ(cache.prefetches(), 1u);
    // The prefetched line now hits.
    EXPECT_EQ(cache.access(0x2008, 50), 50u + 3);
    EXPECT_EQ(cache.misses(), 0u);
    // Prefetching a resident line is a no-op.
    cache.prefetch(0x2000, 60);
    EXPECT_EQ(cache.prefetches(), 1u);
}

TEST(CoreModel, NextLinePrefetcherHelpsStreamingWorkload)
{
    std::string path = makeTrace("core_pf.trace", 23, 300'000);
    mbp::pred::Gshare<12, 14> p1, p2;
    CoreConfig base;
    CoreConfig with_pf = base;
    with_pf.l1d_next_line_prefetch = true;
    Core plain(base, p1);
    Core prefetching(with_pf, p2);
    CoreStats a = plain.run(path, 300'000);
    CoreStats b = prefetching.run(path, 300'000);
    ASSERT_TRUE(a.ok && b.ok);
    EXPECT_LT(b.l1d_misses, a.l1d_misses)
        << "the stream accesses must start hitting";
    EXPECT_GE(b.ipc, a.ipc) << "an ideal-timing prefetcher cannot hurt";
    EXPECT_EQ(a.direction_mispredictions, b.direction_mispredictions)
        << "prefetching must not disturb branch prediction";
    std::remove(path.c_str());
}
