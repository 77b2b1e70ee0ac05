/**
 * @file
 * Tests for the synthetic trace generator: determinism, SBBT validity of
 * every emitted event, call/return pairing, structural realism.
 */
#include "mbp/tracegen/generator.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <vector>

#include "mbp/sbbt/format.hpp"
#include "mbp/sbbt/writer.hpp"
#include "test_tmp.hpp"

using namespace mbp;
using namespace mbp::tracegen;

namespace
{

WorkloadSpec
smallSpec(std::uint64_t seed = 7)
{
    WorkloadSpec spec;
    spec.seed = seed;
    spec.num_instr = 300'000;
    return spec;
}

} // namespace

TEST(TraceGen, DeterministicForSameSeed)
{
    auto a = generateAll(smallSpec(3));
    auto b = generateAll(smallSpec(3));
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].branch, b[i].branch) << i;
        ASSERT_EQ(a[i].instr_gap, b[i].instr_gap) << i;
    }
}

TEST(TraceGen, SameSeedYieldsByteIdenticalSbbtFiles)
{
    // Event-level determinism (above) is not enough for a shared corpus
    // directory: materialization caches *files*, so the whole pipeline
    // down to the encoded bytes must be reproducible. Generate the same
    // spec twice through the SBBT writer and compare the files byte for
    // byte.
    auto render = [](const std::string &path) {
        WorkloadSpec spec = smallSpec(55);
        sbbt::SbbtWriter writer(path);
        TraceGenerator gen(spec);
        TraceEvent ev;
        while (gen.next(ev))
            ASSERT_TRUE(writer.append(ev.branch, ev.instr_gap));
        ASSERT_TRUE(writer.close()) << writer.error();
    };
    auto slurp = [](const std::string &path) {
        std::ifstream in(path, std::ios::binary);
        EXPECT_TRUE(in.good()) << path;
        return std::string(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
    };
    std::string path_a = mbp::test::tempDir() + "/det_a.sbbt";
    std::string path_b = mbp::test::tempDir() + "/det_b.sbbt";
    render(path_a);
    render(path_b);
    std::string bytes_a = slurp(path_a);
    std::string bytes_b = slurp(path_b);
    ASSERT_FALSE(bytes_a.empty());
    EXPECT_EQ(bytes_a, bytes_b);
    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
}

TEST(TraceGen, DifferentSeedsDiffer)
{
    auto a = generateAll(smallSpec(1));
    auto b = generateAll(smallSpec(2));
    bool differ = a.size() != b.size();
    for (std::size_t i = 0; !differ && i < a.size(); ++i)
        differ = !(a[i].branch == b[i].branch);
    EXPECT_TRUE(differ);
}

TEST(TraceGen, RespectsInstructionBudget)
{
    WorkloadSpec spec = smallSpec();
    TraceGenerator gen(spec);
    TraceEvent ev;
    while (gen.next(ev)) {
    }
    EXPECT_GE(gen.instructionsEmitted(), spec.num_instr);
    // Overshoot is at most one block + branch.
    EXPECT_LT(gen.instructionsEmitted(), spec.num_instr + 5000);
}

TEST(TraceGen, EveryEventIsSbbtValid)
{
    auto events = generateAll(smallSpec(11));
    ASSERT_FALSE(events.empty());
    for (const auto &ev : events) {
        ASSERT_TRUE(sbbt::branchIsValid(ev.branch));
        ASSERT_LE(ev.instr_gap, sbbt::kMaxInstrGap);
        ASSERT_TRUE(sbbt::addressIsCanonical(ev.branch.ip()));
        ASSERT_TRUE(sbbt::addressIsCanonical(ev.branch.target()));
    }
}

TEST(TraceGen, CallsAndReturnsBalance)
{
    auto events = generateAll(smallSpec(13));
    std::vector<std::uint64_t> ras;
    std::uint64_t mismatched = 0, calls = 0;
    for (const auto &ev : events) {
        if (ev.branch.isCall()) {
            ++calls;
            ras.push_back(ev.branch.ip() + 4);
        } else if (ev.branch.isRet()) {
            if (ras.empty() || ras.back() != ev.branch.target())
                ++mismatched;
            if (!ras.empty())
                ras.pop_back();
        }
    }
    EXPECT_GT(calls, 0u);
    // Returns into the restart stub are the only tolerated mismatch source.
    EXPECT_LT(mismatched, calls / 100 + 2);
}

TEST(TraceGen, RealisticBranchMix)
{
    auto events = generateAll(smallSpec(17));
    std::uint64_t cond = 0, ind = 0, call = 0, ret = 0, total = events.size();
    std::set<std::uint64_t> static_ips;
    std::uint64_t instr = 0;
    for (const auto &ev : events) {
        instr += ev.instr_gap + 1;
        static_ips.insert(ev.branch.ip());
        if (ev.branch.isConditional())
            ++cond;
        if (ev.branch.isIndirect() && !ev.branch.isRet())
            ++ind;
        if (ev.branch.isCall())
            ++call;
        if (ev.branch.isRet())
            ++ret;
    }
    // Branch density: roughly 15-25% of instructions are branches (the
    // textbook range the paper cites when sizing the 12-bit gap field).
    double density = double(total) / double(instr);
    EXPECT_GT(density, 0.08);
    EXPECT_LT(density, 0.40);
    // Conditional branches dominate.
    EXPECT_GT(double(cond) / double(total), 0.5);
    // Some of everything else.
    EXPECT_GT(ind, 0u);
    EXPECT_GT(call, 0u);
    // Every call eventually returns; the small imbalance comes from the
    // program restart stub and from truncation at the budget boundary.
    std::uint64_t imbalance = call > ret ? call - ret : ret - call;
    EXPECT_LE(imbalance, 50u);
    // A few hundred static branch sites, like a small program.
    EXPECT_GT(static_ips.size(), 100u);
}

TEST(TraceGen, ConditionalOutcomesAreMixed)
{
    auto events = generateAll(smallSpec(19));
    std::uint64_t cond = 0, taken = 0;
    for (const auto &ev : events) {
        if (ev.branch.isConditional()) {
            ++cond;
            taken += ev.branch.isTaken();
        }
    }
    double ratio = double(taken) / double(cond);
    EXPECT_GT(ratio, 0.4);
    EXPECT_LT(ratio, 0.9);
}

TEST(TraceGen, PhaseChangesAlterBehavior)
{
    WorkloadSpec with_phases = smallSpec(23);
    with_phases.num_instr = 600'000;
    with_phases.phase_length = 100'000;
    WorkloadSpec without_phases = with_phases;
    without_phases.phase_length = 0;
    auto a = generateAll(with_phases);
    auto b = generateAll(without_phases);
    bool differ = a.size() != b.size();
    for (std::size_t i = 0; !differ && i < a.size(); ++i)
        differ = !(a[i].branch == b[i].branch);
    EXPECT_TRUE(differ);
}

TEST(TraceGen, NoiseFractionMakesHarderTraces)
{
    // Compare taken-direction entropy proxy: count outcome flips per site.
    auto flips_of = [](double noise) {
        WorkloadSpec spec = smallSpec(29);
        spec.noise_fraction = noise;
        auto events = generateAll(spec);
        std::map<std::uint64_t, std::pair<bool, std::uint64_t>> last;
        std::uint64_t flips = 0, cond = 0;
        for (const auto &ev : events) {
            if (!ev.branch.isConditional())
                continue;
            ++cond;
            auto it = last.find(ev.branch.ip());
            if (it != last.end() && it->second.first != ev.branch.isTaken())
                ++flips;
            last[ev.branch.ip()] = {ev.branch.isTaken(), 0};
        }
        return double(flips) / double(cond);
    };
    EXPECT_LT(flips_of(0.0), flips_of(0.6));
}

TEST(TraceGen, GeneratorAccessors)
{
    WorkloadSpec spec = smallSpec(31);
    TraceGenerator gen(spec);
    EXPECT_EQ(gen.spec().seed, 31u);
    TraceEvent ev;
    ASSERT_TRUE(gen.next(ev));
    EXPECT_EQ(gen.branchesEmitted(), 1u);
    EXPECT_GT(gen.instructionsEmitted(), 0u);
}
