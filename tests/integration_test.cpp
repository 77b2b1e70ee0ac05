/**
 * @file
 * Cross-simulator integration tests — the reproduction of paper §VII-C:
 * "As part of the evaluation, we checked that the simulation results of
 * both frameworks were identical."
 *
 * One synthetic workload is rendered to all three trace formats; the same
 * predictor implementation then runs under MBPlib, under the CBP5-style
 * framework (via the adapter) and inside champsim-lite, and the
 * misprediction counts must agree exactly.
 */
#include <gtest/gtest.h>

#include <cstdio>

#include "cbp5/framework.hpp"
#include "cbp5/trace.hpp"
#include "champsim/core.hpp"
#include "champsim/trace_synth.hpp"
#include "mbp/predictors/all.hpp"
#include "mbp/sbbt/reader.hpp"
#include "mbp/sbbt/writer.hpp"
#include "mbp/sim/simulator.hpp"
#include "mbp/tracegen/generator.hpp"
#include "test_tmp.hpp"

using namespace mbp;

namespace
{

struct TraceSet
{
    std::string sbbt;
    std::string btt;
    std::string champsim;
    std::uint64_t instructions = 0;
    std::uint64_t branches = 0;
};

/** Renders one workload into all three formats. */
TraceSet
buildTraceSet(std::uint64_t seed, std::uint64_t num_instr)
{
    tracegen::WorkloadSpec spec;
    spec.seed = seed;
    spec.num_instr = num_instr;
    auto events = tracegen::generateAll(spec);

    TraceSet set;
    set.sbbt = mbp::test::tempDir() + "/equiv.sbbt";
    set.btt = mbp::test::tempDir() + "/equiv.btt.gz";
    set.champsim = mbp::test::tempDir() + "/equiv.trace.flz";

    sbbt::SbbtWriter sbbt_writer(set.sbbt);
    cbp5::BttWriter btt_writer(set.btt);
    champsim::TraceWriter cs_writer(set.champsim);
    champsim::SyntheticTraceBuilder cs_builder(cs_writer,
                                               champsim::SynthConfig{});
    for (const auto &ev : events) {
        EXPECT_TRUE(sbbt_writer.append(ev.branch, ev.instr_gap));
        btt_writer.append(ev.branch, ev.instr_gap);
        EXPECT_TRUE(cs_builder.append(ev.branch, ev.instr_gap));
        set.instructions += ev.instr_gap + 1;
    }
    set.branches = events.size();
    EXPECT_TRUE(sbbt_writer.close()) << sbbt_writer.error();
    EXPECT_TRUE(btt_writer.close()) << btt_writer.error();
    EXPECT_TRUE(cs_writer.close()) << cs_writer.error();
    return set;
}

void
removeTraceSet(const TraceSet &set)
{
    std::remove(set.sbbt.c_str());
    std::remove(set.btt.c_str());
    std::remove(set.champsim.c_str());
}

} // namespace

class Equivalence : public testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        set_ = new TraceSet(buildTraceSet(1234, 400'000));
    }

    static void
    TearDownTestSuite()
    {
        removeTraceSet(*set_);
        delete set_;
        set_ = nullptr;
    }

    static TraceSet *set_;
};

TraceSet *Equivalence::set_ = nullptr;

TEST_F(Equivalence, MbplibAndCbp5FrameworkAgreeExactly)
{
    // Same predictor implementation, two simulators, identical results —
    // paper §VII-C. Exercised across simple and state-of-the-art designs.
    struct Case
    {
        const char *name;
        std::unique_ptr<Predictor> mbp_side;
        std::unique_ptr<Predictor> cbp_side;
    };
    std::vector<Case> cases;
    cases.push_back({"bimodal", std::make_unique<pred::Bimodal<14>>(),
                     std::make_unique<pred::Bimodal<14>>()});
    cases.push_back({"gshare", std::make_unique<pred::Gshare<15, 16>>(),
                     std::make_unique<pred::Gshare<15, 16>>()});
    cases.push_back({"tage", std::make_unique<pred::Tage>(),
                     std::make_unique<pred::Tage>()});
    cases.push_back({"batage", std::make_unique<pred::Batage>(),
                     std::make_unique<pred::Batage>()});

    for (auto &c : cases) {
        SimArgs args;
        args.trace_path = set_->sbbt;
        json_t mbp_result = simulate(*c.mbp_side, args);
        ASSERT_FALSE(mbp_result.contains("error")) << c.name;

        cbp5::MbpAdapter adapter(*c.cbp_side);
        cbp5::RunResult cbp_result = cbp5::run(adapter, set_->btt);
        ASSERT_TRUE(cbp_result.ok) << c.name << ": " << cbp_result.error;

        EXPECT_EQ(mbp_result.find("metrics")
                      ->find("mispredictions")
                      ->asUint(),
                  cbp_result.mispredictions)
            << c.name;
        EXPECT_EQ(mbp_result.find("metadata")
                      ->find("num_conditional_branches")
                      ->asUint(),
                  cbp_result.conditional_branches)
            << c.name;
        EXPECT_EQ(mbp_result.find("metadata")
                      ->find("simulation_instr")
                      ->asUint(),
                  cbp_result.instructions)
            << c.name;
        EXPECT_DOUBLE_EQ(mbp_result.find("metrics")->find("mpki")->asDouble(),
                         cbp_result.mpki)
            << c.name;
    }
}

TEST_F(Equivalence, MbplibAndChampsimLiteAgreeExactly)
{
    pred::Gshare<15, 16> mbp_side;
    SimArgs args;
    args.trace_path = set_->sbbt;
    json_t mbp_result = simulate(mbp_side, args);
    ASSERT_FALSE(mbp_result.contains("error"));

    pred::Gshare<15, 16> cs_side;
    champsim::CoreConfig config;
    champsim::Core core(config, cs_side);
    champsim::CoreStats stats =
        core.run(set_->champsim, set_->instructions + 1);
    ASSERT_TRUE(stats.ok) << stats.error;

    EXPECT_EQ(
        mbp_result.find("metrics")->find("mispredictions")->asUint(),
        stats.direction_mispredictions)
        << "same predictor, same branch stream: identical mispredictions";
    EXPECT_EQ(mbp_result.find("metadata")
                  ->find("num_conditional_branches")
                  ->asUint(),
              stats.conditional_branches);
    EXPECT_EQ(stats.instructions, set_->instructions);
}

TEST_F(Equivalence, TraceSizeRelationsFromTableIAndSectionIV)
{
    // Reproducible size relations (see EXPERIMENTS.md for the full Table I
    // discussion):
    //  1. Per-instruction champsim traces dwarf branch-only traces — the
    //     essence of Table I's 42x DPC3 row.
    //  2. Compression shrinks SBBT by an order of magnitude.
    //  3. Under the *same* codec, the graph-based text format is denser
    //     than SBBT — exactly what paper §IV reports for BT9 vs SBBT under
    //     zstd (504 MB vs 769 MB); SBBT trades size for parse speed.
    auto size_of = [](const std::string &path) {
        std::FILE *f = std::fopen(path.c_str(), "rb");
        EXPECT_NE(f, nullptr) << path;
        std::fseek(f, 0, SEEK_END);
        long size = std::ftell(f);
        std::fclose(f);
        return static_cast<std::uint64_t>(size);
    };
    // Compress the SBBT trace with FLZ like the distributed traces.
    std::string sbbt_flz = mbp::test::tempDir() + "/equiv.sbbt.flz";
    {
        sbbt::SbbtReader reader(set_->sbbt);
        ASSERT_TRUE(reader.ok());
        sbbt::Header header = reader.header();
        sbbt::SbbtWriter writer(sbbt_flz, header, 16);
        sbbt::PacketData packet;
        while (reader.next(packet))
            ASSERT_TRUE(writer.append(packet.branch, packet.instr_gap));
        ASSERT_TRUE(writer.close()) << writer.error();
    }
    std::uint64_t sbbt_raw_size = size_of(set_->sbbt);
    std::uint64_t sbbt_size = size_of(sbbt_flz);
    std::uint64_t btt_size = size_of(set_->btt);
    std::uint64_t cs_size = size_of(set_->champsim);
    EXPECT_LT(sbbt_size * 10, cs_size)
        << "per-instruction traces dwarf branch-only traces (Table I, DPC3)";
    EXPECT_LT(sbbt_size * 10, sbbt_raw_size)
        << "compression pays for itself on SBBT";
    // Both branch-only formats land within a small factor of each other;
    // which one wins depends on trace length and codec (the same-codec
    // comparison of paper §IV is *reported* by bench/table1_trace_size).
    EXPECT_LT(sbbt_size, btt_size * 8);
    EXPECT_LT(btt_size, sbbt_size * 8);
}
