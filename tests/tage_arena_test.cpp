/**
 * @file
 * The TAGE-family fast path: packed-entry round trips at the field
 * extremes (mbp/predictors/tage_arena.hpp), configuration-time geometry
 * rejection, the shared history component (TaggedHistory) against the
 * per-fold reference and its AVX2 phase 1 against the scalar one, the
 * two-phase block steps against the virtual path for the whole family,
 * over geometries the roster does not use and over a loop stream that
 * makes TAGE-SC-L's overrides fire, TAGE's absolute behaviour across
 * many useful resets, and the storage audit regression pinning the
 * family's budgets across the arena refactor.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <iterator>
#include <functional>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "mbp/audit/audit.hpp"
#include "mbp/predictors/batage.hpp"
#include "mbp/predictors/tage.hpp"
#include "mbp/predictors/tage_arena.hpp"
#include "mbp/predictors/tage_scl.hpp"
#include "mbp/predictors/tagged_history.hpp"
#include "mbp/sim/kernels.hpp"
#include "mbp/utils/hash.hpp"
#include "mbp/utils/history.hpp"

namespace
{

using namespace mbp;
using namespace mbp::pred;

TEST(PackedTageEntry, DefaultIsZeroedSeedEntry)
{
    PackedTageEntry e;
    EXPECT_EQ(e.tag(), 0u);
    EXPECT_EQ(e.ctr(), 0);
    EXPECT_EQ(e.useful(), 0);
}

TEST(PackedTageEntry, RoundTripsFieldExtremes)
{
    PackedTageEntry e;
    // Full 16-bit tag, counter at both signed extremes, useful at the
    // 8-bit ceiling — each field must round-trip without touching the
    // other two.
    e.setTag(0xffff);
    e.setCtr(-128);
    e.setUseful(255);
    EXPECT_EQ(e.tag(), 0xffffu);
    EXPECT_EQ(e.ctr(), -128);
    EXPECT_EQ(e.useful(), 255);

    e.setCtr(127);
    EXPECT_EQ(e.tag(), 0xffffu);
    EXPECT_EQ(e.ctr(), 127);
    EXPECT_EQ(e.useful(), 255);

    e.setTag(0);
    e.setUseful(0);
    EXPECT_EQ(e.tag(), 0u);
    EXPECT_EQ(e.ctr(), 127);
    EXPECT_EQ(e.useful(), 0);

    // Sign extension across the packed byte: every representable value
    // of an 8-bit two's-complement counter survives the round trip.
    for (int v = -128; v <= 127; ++v) {
        e.setCtr(v);
        EXPECT_EQ(e.ctr(), v);
    }
}

TEST(PackedDualEntry, RoundTripsFieldExtremes)
{
    PackedDualEntry e;
    EXPECT_EQ(e.tag(), 0u);
    EXPECT_EQ(e.numTaken(), 0u);
    EXPECT_EQ(e.numNotTaken(), 0u);

    e.setTag(0xffff);
    e.setNumTaken(255);
    e.setNumNotTaken(255);
    EXPECT_EQ(e.tag(), 0xffffu);
    EXPECT_EQ(e.numTaken(), 255u);
    EXPECT_EQ(e.numNotTaken(), 255u);

    e.setNumTaken(0);
    EXPECT_EQ(e.tag(), 0xffffu);
    EXPECT_EQ(e.numTaken(), 0u);
    EXPECT_EQ(e.numNotTaken(), 255u);
}

std::vector<TageTableSpec>
specs(int log_size, int history_len, int tag_bits, int count = 2)
{
    TageTableSpec spec;
    spec.log_size = log_size;
    spec.history_len = history_len;
    spec.tag_bits = tag_bits;
    return std::vector<TageTableSpec>(static_cast<std::size_t>(count),
                                      spec);
}

TEST(TaggedGeometry, RejectsWhatThePackedLayoutCannotHold)
{
    // The packed 4-byte entry caps the tag at 16 bits; the shared
    // validator also rejects degenerate table shapes before any arena
    // memory is allocated.
    const auto validate = [](const std::vector<TageTableSpec> &tables) {
        validateTaggedGeometry("t", tables, 14);
    };
    EXPECT_THROW(validate(specs(6, 8, 17)), std::invalid_argument);
    EXPECT_THROW(validate(specs(6, 8, 1)), std::invalid_argument);
    EXPECT_THROW(validate(specs(0, 8, 9)), std::invalid_argument);
    EXPECT_THROW(validate(specs(29, 8, 9)), std::invalid_argument);
    EXPECT_THROW(validate(specs(6, 0, 9)), std::invalid_argument);
    EXPECT_THROW(validate({}), std::invalid_argument);
    EXPECT_THROW(validate(specs(6, 8, 9, 65)), std::invalid_argument);
    EXPECT_NO_THROW(validate(specs(6, 8, 16, 64)));
}

/** The std::invalid_argument message validation gives, or "". */
std::string
rejection(const std::vector<TageTableSpec> &tables, int log_bimodal_size)
{
    try {
        validateTaggedGeometry("t", tables, log_bimodal_size);
    } catch (const std::invalid_argument &e) {
        return e.what();
    }
    return "";
}

TEST(TaggedGeometry, RejectsOversizedGeometryNamingTheField)
{
    // Validation only: each of these would allocate gigabytes (or shift
    // by 64 or more) if it were accepted.
    // 16 tables of 2^28 entries: 2^32 entries, a wrapped 32-bit count.
    EXPECT_NE(rejection(specs(28, 8, 9, 16), 14).find("log_size"),
              std::string::npos);
    EXPECT_NE(rejection(specs(28, 8, 9, 2), 14).find("log_size"),
              std::string::npos);
    EXPECT_EQ(rejection(specs(28, 8, 9, 1), 14), "");
    EXPECT_EQ(rejection(specs(27, 8, 9, 2), 14), "");
    // The bimodal base's size is checked before it is allocated.
    for (const int log_bimodal_size : {0, -1, 29, 64, 65, INT_MAX})
        EXPECT_NE(rejection(specs(6, 8, 9), log_bimodal_size)
                      .find("log_bimodal_size"),
                  std::string::npos)
            << log_bimodal_size;
    EXPECT_EQ(rejection(specs(6, 8, 9), 1), "");
    EXPECT_EQ(rejection(specs(6, 8, 9), 28), "");
    // The history ring is sized by the longest history.
    for (const int history_len : {kMaxHistoryLength + 1, INT_MAX})
        EXPECT_NE(rejection(specs(6, history_len, 9), 14).find("history_len"),
                  std::string::npos)
            << history_len;
    EXPECT_EQ(rejection(specs(6, kMaxHistoryLength, 9), 14), "");
}

TEST(TaggedGeometry, PredictorsRejectBimodalSizeBeforeAllocating)
{
    Tage::Config tage = Tage::Config::geometric(4, 3, 20, 5, 7);
    tage.log_bimodal_size = 64;
    EXPECT_THROW(Tage{tage}, std::invalid_argument);
    EXPECT_THROW(TageScl{tage}, std::invalid_argument);
    Batage::Config batage = Batage::Config::geometric(4, 3, 20, 5, 7);
    batage.log_bimodal_size = 40;
    EXPECT_THROW(Batage{batage}, std::invalid_argument);
}

TEST(TaggedGeometry, TageRejectsCounterWidthsOutsidePackedBytes)
{
    auto config = [](int counter_bits, int useful_bits) {
        Tage::Config c = Tage::Config::geometric(4, 3, 20, 5, 7);
        c.log_bimodal_size = 6;
        c.counter_bits = counter_bits;
        c.useful_bits = useful_bits;
        return c;
    };
    EXPECT_THROW(Tage(config(1, 2)), std::invalid_argument);
    EXPECT_THROW(Tage(config(9, 2)), std::invalid_argument);
    EXPECT_THROW(Tage(config(3, 0)), std::invalid_argument);
    EXPECT_THROW(Tage(config(3, 9)), std::invalid_argument);
    EXPECT_NO_THROW(Tage(config(8, 8)));
    EXPECT_NO_THROW(Tage(config(2, 1)));

    Tage::Config bad_tag = Tage::Config::geometric(4, 3, 20, 5, 7);
    bad_tag.tables[1].tag_bits = 17;
    EXPECT_THROW(Tage{bad_tag}, std::invalid_argument);
}

TEST(TaggedGeometry, BatageRejectsCounterMaxOutsidePackedBytes)
{
    auto config = [](int counter_max) {
        Batage::Config c = Batage::Config::geometric(4, 3, 20, 5, 7);
        c.log_bimodal_size = 6;
        c.counter_max = counter_max;
        return c;
    };
    EXPECT_THROW(Batage(config(0)), std::invalid_argument);
    EXPECT_THROW(Batage(config(256)), std::invalid_argument);
    EXPECT_NO_THROW(Batage(config(255)));
    EXPECT_NO_THROW(Batage(config(1)));
}

TEST(TaggedHistoryTest, LookupMatchesPerFoldReference)
{
    // The per-branch lookup must stay bit-identical to the folds of a
    // plain GlobalHistory/FoldedHistory/PathHistory: bank t indexes
    // XorFold(ip >> 2) ^ its index fold ^ XorFold(path), and tags with
    // XorFold(ip >> 2) ^ its tag fold ^ (its second tag fold << 1).
    const int lengths[] = {1, 4, 7, 13, 64, 65, 127, 128, 130, 231, 232, 700};
    const int log_sizes[] = {10, 9, 13};
    const int tag_bits[] = {10, 9, 16, 2};
    std::vector<TageTableSpec> tables;
    for (std::size_t t = 0; t < std::size(lengths); ++t)
        tables.push_back({log_sizes[t % 3], lengths[t], tag_bits[t % 4]});
    TaggedHistory history("t", tables, 12);

    struct Folds
    {
        FoldedHistory index, tag, tag2;
    };
    std::vector<Folds> reference;
    for (const TageTableSpec &spec : tables)
        reference.push_back({FoldedHistory(spec.history_len, spec.log_size),
                             FoldedHistory(spec.history_len, spec.tag_bits),
                             FoldedHistory(spec.history_len,
                                           spec.tag_bits - 1)});
    GlobalHistory ghist(700);
    PathHistory path(4, 8);

    std::mt19937_64 rng(23);
    std::vector<std::uint32_t> flat(tables.size());
    std::vector<std::uint16_t> tag(tables.size());
    std::uint32_t offset_sum = 0;
    std::vector<std::uint32_t> offsets;
    for (const TageTableSpec &spec : tables) {
        offsets.push_back(offset_sum);
        offset_sum += std::uint32_t(1) << spec.log_size;
    }
    EXPECT_EQ(history.numEntries(), offset_sum);
    EXPECT_EQ(history.historyBits(), 700);
    for (int i = 0; i < 6000; ++i) {
        const std::uint64_t ip = rng();
        const bool taken = (rng() & 1) != 0;
        history.lookup(ip, flat.data(), tag.data());
        const std::uint64_t base = ip >> 2;
        for (std::size_t t = 0; t < tables.size(); ++t) {
            const TageTableSpec &spec = tables[t];
            const std::uint64_t index =
                (XorFold(base, spec.log_size) ^ reference[t].index.value() ^
                 XorFold(path.value(), spec.log_size)) &
                util::maskBits(spec.log_size);
            const std::uint64_t want_tag =
                (XorFold(base, spec.tag_bits) ^ reference[t].tag.value() ^
                 (reference[t].tag2.value() << 1)) &
                util::maskBits(spec.tag_bits);
            ASSERT_EQ(flat[t], offsets[t] + index)
                << "bank " << t << " step " << i;
            ASSERT_EQ(tag[t], want_tag) << "bank " << t << " step " << i;
        }
        ASSERT_EQ(history.bimodalIndex(ip), XorFold(base, 12));
        history.push(ip, taken);
        for (std::size_t t = 0; t < tables.size(); ++t) {
            const bool evicted = ghist[tables[t].history_len - 1];
            reference[t].index.update(taken, evicted);
            reference[t].tag.update(taken, evicted);
            reference[t].tag2.update(taken, evicted);
        }
        ghist.push(taken);
        path.push(ip);
    }
}

/** A synthetic block of branch rows, its columns owned. */
struct Rows
{
    std::vector<std::uint64_t> ip, target, instr;
    std::vector<std::uint8_t> meta;
    std::vector<std::uint32_t> site;

    /** Rows [begin, begin + count) as a block's columns. */
    sbbt::BranchColumns
    columns(std::size_t begin, std::size_t count) const
    {
        sbbt::BranchColumns c;
        c.ip = ip.data() + begin;
        c.target = target.data() + begin;
        c.instr = instr.data() + begin;
        c.meta = meta.data() + begin;
        c.site = site.data() + begin;
        c.size = count;
        return c;
    }
    std::size_t size() const { return ip.size(); }

    /** Appends a branch at @p at_site, @p gap instructions after the
     *  last. Sites lie 36 bytes apart: the low bits of ip >> 2, which the
     *  path history records, differ between sites. */
    void
    push(std::uint32_t at_site, OpCode op, bool taken, std::uint64_t gap)
    {
        ip.push_back(0x400000 + 36 * std::uint64_t(at_site));
        target.push_back(0x500000 + 0x10 * std::uint64_t(at_site));
        instr.push_back((instr.empty() ? 0 : instr.back()) + gap);
        meta.push_back(
            static_cast<std::uint8_t>(op.bits() | (taken ? 0x10 : 0)));
        site.push_back(at_site);
    }
};

/**
 * @p count rows over 96 sites, about four in five conditional. Outcomes
 * follow the recent global history per site with some noise, so the
 * tagged tables hit, allocate and age; the rest are jumps, calls and
 * returns.
 */
Rows
makeRows(std::size_t count, std::uint64_t seed)
{
    Rows rows;
    std::mt19937_64 rng(seed);
    std::uint64_t hist = 0;
    const OpCode others[] = {OpCode::jump(), OpCode::call(), OpCode::ret(),
                             OpCode::indJump()};
    for (std::size_t i = 0; i < count; ++i) {
        const std::uint32_t site = static_cast<std::uint32_t>(
            (rng() % 4 == 0) ? rng() % 96 : (i * 7) % 24);
        const bool conditional = site % 5 != 0;
        bool taken;
        if (conditional) {
            const int lag = static_cast<int>(site % 11);
            taken = (((hist >> lag) ^ site) & 1) != 0;
            if (rng() % 10 == 0)
                taken = !taken;
        } else {
            taken = true;
        }
        const OpCode op = conditional ? OpCode::condJump() : others[site % 4];
        rows.push(site, op, taken, 1 + rng() % 5);
        hist = (hist << 1) | (taken ? 1 : 0);
    }
    return rows;
}

/**
 * @p count rows of loops with fixed trip counts from 5 to 60, about one
 * in twenty rows an exit. Each iteration runs one or two conditionals of
 * random outcome before the loop branch, so the global history cannot
 * foresee an exit and only a loop predictor can; every few loops a call
 * and a return pass by.
 */
Rows
makeLoopRows(std::size_t count, std::uint64_t seed)
{
    Rows rows;
    std::mt19937_64 rng(seed);
    const auto push = [&](std::uint32_t site, OpCode op, bool taken) {
        rows.push(site, op, taken, 1 + rng() % 5);
    };
    const std::uint32_t trips[] = {5, 9, 17, 23, 31, 40, 52, 60};
    while (rows.size() < count) {
        const std::uint32_t loop = static_cast<std::uint32_t>(rng() % 8);
        for (std::uint32_t i = 0; i < trips[loop]; ++i) {
            for (std::uint64_t k = 1 + rng() % 2; k > 0; --k) {
                const auto body = static_cast<std::uint32_t>(40 + rng() % 40);
                push(body, OpCode::condJump(), (rng() & 1) != 0);
            }
            push(80 + loop, OpCode::condJump(), i + 1 < trips[loop]);
        }
        if (rng() % 4 == 0) {
            push(90, OpCode::call(), true);
            push(91, OpCode::ret(), true);
        }
    }
    rows.ip.resize(count);
    rows.target.resize(count);
    rows.instr.resize(count);
    rows.meta.resize(count);
    rows.site.resize(count);
    return rows;
}

/**
 * Steps @p two_phase through @p rows in the block form — phase 1 over
 * chunks of varying length, then stepIndexed()/trackIndexed() per row —
 * and @p separate through predict/train/track, and expects the same
 * prediction at every conditional row and the same internal trajectory.
 */
template <typename P>
void
expectBlockStepsMatchSeparateCalls(P two_phase, P separate, bool track_all)
{
    const Rows rows = makeRows(60000, 29);
    const sbbt::BranchColumns all = rows.columns(0, rows.size());
    const std::size_t chunk_sizes[] = {P::kIndexRows, 1, 37, 300,
                                       P::kIndexRows - 1};
    std::size_t pos = 0;
    for (std::size_t c = 0; pos < rows.size(); ++c) {
        const std::size_t end = std::min(
            rows.size(), pos + chunk_sizes[c % std::size(chunk_sizes)]);
        two_phase.indexRows(all, pos, end, track_all);
        std::size_t j = 0;
        for (std::size_t i = pos; i < end; ++i) {
            const Branch b{rows.ip[i], rows.target[i],
                           OpCode(rows.meta[i] & 0x0f),
                           (rows.meta[i] & 0x10) != 0};
            if (b.isConditional()) {
                const bool guess =
                    two_phase.stepIndexed(j++, b.ip(), b.isTaken());
                const bool separate_guess = separate.predict(b.ip());
                separate.train(b);
                separate.track(b);
                ASSERT_EQ(guess, separate_guess) << "diverged at row " << i;
            } else if (track_all) {
                two_phase.trackIndexed(b);
                separate.track(b);
            }
        }
        pos = end;
    }
    // Same predictions are necessary but not sufficient — the internal
    // trajectories (allocations, chooser movement, loop hits) must agree
    // too, or the next million branches would diverge.
    EXPECT_EQ(two_phase.execution_stats(), separate.execution_stats());
}

TEST(TageFamilyFusedStep, TageMatchesSeparateCalls)
{
    Tage::Config config = Tage::Config::geometric(6, 3, 40, 5, 7);
    config.log_bimodal_size = 7;
    config.u_reset_period = 4096;
    for (const bool track_all : {true, false})
        expectBlockStepsMatchSeparateCalls(Tage(config), Tage(config),
                                           track_all);
}

TEST(TageFamilyFusedStep, BatageMatchesSeparateCalls)
{
    Batage::Config config = Batage::Config::geometric(6, 3, 40, 5, 7);
    config.log_bimodal_size = 7;
    config.cat_max = 64;
    for (const bool track_all : {true, false})
        expectBlockStepsMatchSeparateCalls(Batage(config), Batage(config),
                                           track_all);
}

TEST(TageFamilyFusedStep, TageSclMatchesSeparateCalls)
{
    Tage::Config config = Tage::Config::geometric(6, 3, 40, 6, 8);
    config.log_bimodal_size = 8;
    config.u_reset_period = 256;
    for (const bool track_all : {true, false})
        expectBlockStepsMatchSeparateCalls(TageScl(config), TageScl(config),
                                           track_all);
}

/** What a run predicted: its misprediction count and an FNV-1a hash of
 *  its prediction at every conditional row. */
struct Trajectory
{
    std::uint64_t mispredictions = 0;
    std::uint64_t hash = 0xcbf29ce484222325u;
};

/** Steps @p predictor through predict/train/track over @p rows. */
Trajectory
stepSeparately(Predictor &predictor, const Rows &rows)
{
    Trajectory out;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Branch b{rows.ip[i], rows.target[i],
                       OpCode(rows.meta[i] & 0x0f),
                       (rows.meta[i] & 0x10) != 0};
        if (b.isConditional()) {
            const bool guess = predictor.predict(b.ip());
            predictor.train(b);
            out.mispredictions += guess != b.isTaken() ? 1 : 0;
            out.hash = (out.hash ^ (guess ? 1 : 0)) * 0x100000001b3u;
        }
        predictor.track(b);
    }
    return out;
}

TEST(TageUsefulReset, PinnedAcrossManyResets)
{
    // Absolute behaviour across many graceful useful resets (about 48k
    // conditionals per run, so a period of 4096 resets 11 times and a
    // period of 1 at every train), pinned for every useful width whose
    // high and low bits differ. The values predate the eager reset.
    const Rows rows = makeRows(60000, 43);
    const struct
    {
        std::uint32_t period;
        int useful_bits;
        std::uint64_t mispredictions;
        std::uint64_t hash;
    } pins[] = {
        {1, 1, 19421, 0x932a4cd8db2480b4u},
        {1, 2, 19421, 0x932a4cd8db2480b4u},
        {1, 3, 19421, 0x932a4cd8db2480b4u},
        {64, 1, 19420, 0xdf266bab90e0c8b3u},
        {64, 2, 19440, 0x7d4ac737f3aade2du},
        {64, 3, 19408, 0xdcc4c23470e82a65u},
        {4096, 1, 19420, 0xa6e99f403299c73fu},
        {4096, 2, 19368, 0xd9cd22c7a1b30dd1u},
        {4096, 3, 19341, 0x7e0aca5ac085930cu},
    };
    for (const auto &pin : pins) {
        Tage::Config config = Tage::Config::geometric(6, 3, 40, 5, 7);
        config.log_bimodal_size = 7;
        config.u_reset_period = pin.period;
        config.useful_bits = pin.useful_bits;
        Tage tage(config);
        const Trajectory run = stepSeparately(tage, rows);
        const std::string label = "period " + std::to_string(pin.period) +
                                  ", useful_bits " +
                                  std::to_string(pin.useful_bits);
        EXPECT_EQ(run.mispredictions, pin.mispredictions) << label;
        EXPECT_EQ(run.hash, pin.hash) << label;
    }

    Tage::Config config = Tage::Config::geometric(6, 3, 40, 6, 8);
    config.log_bimodal_size = 8;
    config.u_reset_period = 256;
    TageScl tage_scl(config);
    const Trajectory run = stepSeparately(tage_scl, rows);
    EXPECT_EQ(run.mispredictions, 16448u);
    EXPECT_EQ(run.hash, 0x2fe003a86ecb758du);
}

/** The geometries the block-kernel identity runs over, by name. */
struct Geometry
{
    const char *name;
    std::vector<TageTableSpec> tables;
};

std::vector<Geometry>
identityGeometries()
{
    std::vector<Geometry> out;
    out.push_back(
        {"one-table", Tage::Config::geometric(1, 9, 9, 8, 9).tables});
    // 12 tables: two 8-lane vectors, and a longest history (640) beyond
    // one phase-1 chunk (512 rows).
    out.push_back(
        {"twelve-tables", Tage::Config::geometric(12, 4, 640, 7, 8).tables});
    // Widest tag and a 2^20-entry table.
    out.push_back({"wide", Tage::Config::geometric(4, 5, 100, 20, 15).tables});
    // Histories several chunks long.
    out.push_back({"long-history",
                   Tage::Config::geometric(3, 600, 2100, 9, 10).tables});
    // Three index widths and three tag widths: with the bimodal index,
    // seven address folds, two AVX2 vectors of them.
    std::vector<TageTableSpec> seven;
    for (int t = 0; t < 6; ++t)
        seven.push_back({8 + t % 3, 5 + 9 * t, 9 + t / 2});
    out.push_back({"seven-address-folds", seven});
    // Ten distinct index widths: phase 1 takes the scalar loop.
    std::vector<TageTableSpec> mixed;
    for (int t = 0; t < 10; ++t)
        mixed.push_back({4 + t, 3 + 5 * t, 6 + t % 3});
    out.push_back({"ten-index-widths", mixed});
    return out;
}

/** A run of the block driver's view: blocks of @p block_rows rows whose
 *  first @p mid rows are warm-up in the first block only. */
struct Schedule
{
    std::size_t block_rows;
    std::size_t mid;
    bool track_all;
};

/**
 * Runs @p fused (a FusedKernel over the concrete type, so stepped in two
 * phases) and @p virt (a FusedKernel over mbp::Predictor, the virtual
 * path) over the same blocks, hooked and collecting, and expects the
 * same prediction at every conditional row, the same tallies and the
 * same execution_stats().
 */
void
expectKernelsAgree(BlockKernel &fused, BlockKernel &virt, const Rows &rows,
                   const Schedule &schedule, const std::string &label)
{
    KernelTally fused_tally, virt_tally;
    std::vector<std::uint8_t> fused_guesses(schedule.block_rows),
        virt_guesses(schedule.block_rows);
    for (std::size_t pos = 0; pos < rows.size();
         pos += schedule.block_rows) {
        KernelBlock block;
        block.columns = rows.columns(
            pos, std::min(schedule.block_rows, rows.size() - pos));
        block.mid = pos == 0 ? std::min(schedule.mid, block.columns.size)
                             : 0;
        block.num_sites = 96;
        block.track_all = schedule.track_all;
        block.collect = true;
        block.guesses = fused_guesses.data();
        fused.runBlock(block, fused_tally);
        block.guesses = virt_guesses.data();
        virt.runBlock(block, virt_tally);
        for (std::size_t i = 0; i < block.columns.size; ++i) {
            if ((block.columns.meta[i] & 0x01) != 0) {
                ASSERT_EQ(fused_guesses[i], virt_guesses[i])
                    << label << ": row " << pos + i;
            }
        }
    }
    EXPECT_EQ(fused_tally.dynamic_cond, virt_tally.dynamic_cond) << label;
    EXPECT_EQ(fused_tally.mispredictions, virt_tally.mispredictions)
        << label;
    EXPECT_EQ(fused_tally.site_mis, virt_tally.site_mis) << label;
    EXPECT_EQ(fused.execution_stats(), virt.execution_stats()) << label;
}

/**
 * Every geometry x schedule over the noisy-history stream and the loop
 * stream for predictor type P made by @p make; @p check_loops then sees
 * the execution_stats() of each run over the loop stream.
 */
template <typename P>
void
expectBlockKernelIdentity(
    const std::function<std::unique_ptr<P>(const std::vector<TageTableSpec> &)>
        &make,
    const std::function<void(const json_t &, const std::string &)>
        &check_loops = {})
{
    const struct
    {
        const char *name;
        Rows rows;
    } streams[] = {
        {"noisy history", makeRows(20000, 31)},
        {"fixed-trip loops", makeLoopRows(20000, 47)},
    };
    const Schedule schedules[] = {
        {4096, 0, true},
        {4096, 300, false}, // warm-up ends inside the first chunk
        {1000, 700, true},  // ... inside the second chunk
        {513, 1, false},
    };
    for (const auto &stream : streams) {
        for (const Geometry &geometry : identityGeometries()) {
            for (const Schedule &schedule : schedules) {
                std::unique_ptr<P> fused_predictor = make(geometry.tables);
                std::unique_ptr<P> virt_predictor = make(geometry.tables);
                FusedKernel<P> fused(*fused_predictor);
                FusedKernel<Predictor> virt(*virt_predictor);
                const std::string label =
                    std::string(stream.name) + ", " + geometry.name +
                    ", blocks of " + std::to_string(schedule.block_rows) +
                    ", mid " + std::to_string(schedule.mid) +
                    (schedule.track_all ? ", track all" : ", conditionals");
                expectKernelsAgree(fused, virt, stream.rows, schedule,
                                   label);
                if (check_loops && &stream == &streams[1])
                    check_loops(virt.execution_stats(), label);
            }
        }
    }
}

TEST(TwoPhaseKernel, TageMatchesVirtualPath)
{
    expectBlockKernelIdentity<Tage>([](const std::vector<TageTableSpec> &t) {
        Tage::Config config;
        config.tables = t;
        config.log_bimodal_size = 10;
        config.u_reset_period = 2048;
        return std::make_unique<Tage>(config);
    });
}

TEST(TwoPhaseKernel, BatageMatchesVirtualPath)
{
    expectBlockKernelIdentity<Batage>(
        [](const std::vector<TageTableSpec> &t) {
            Batage::Config config;
            config.tables = t;
            config.log_bimodal_size = 10;
            config.cat_max = 256;
            return std::make_unique<Batage>(config);
        });
}

TEST(TwoPhaseKernel, TageSclMatchesVirtualPath)
{
    // Over the loop stream both of TAGE-SC-L's overrides must fire, or
    // the identity would not cover the paths that decide them.
    expectBlockKernelIdentity<TageScl>(
        [](const std::vector<TageTableSpec> &t) {
            Tage::Config config;
            config.tables = t;
            config.log_bimodal_size = 10;
            config.u_reset_period = 2048;
            return std::make_unique<TageScl>(config);
        },
        [](const json_t &stats, const std::string &label) {
            const json_t *loop_used = stats.find("loop_used");
            const json_t *corrections = stats.find("sc_corrections");
            ASSERT_TRUE(loop_used && corrections) << label;
            EXPECT_GT(loop_used->asUint(), 0u) << label;
            EXPECT_GT(corrections->asUint(), 0u) << label;
        });
}

TEST(TaggedHistoryTest, Avx2PhaseOneMatchesScalar)
{
    std::size_t vectorized = 0;
    for (const Geometry &geometry : identityGeometries()) {
        TaggedHistory scalar("t", geometry.tables, 13);
        TaggedHistory avx2("t", geometry.tables, 13);
        if (!avx2.vectorized())
            continue; // no AVX2 on this host, or too many address folds
        ++vectorized;
        const Rows rows = makeRows(30000, 37);
        const sbbt::BranchColumns all = rows.columns(0, rows.size());
        const std::size_t banks = geometry.tables.size();
        std::mt19937_64 rng(41);
        std::size_t pos = 0;
        while (pos < rows.size()) {
            const std::size_t end = std::min(
                rows.size(), pos + 1 + rng() % TaggedHistory::kChunkRows);
            const bool track_all = rng() % 2 == 0;
            const std::size_t n =
                scalar.indexRowsScalar(all, pos, end, track_all);
            ASSERT_EQ(avx2.indexRows(all, pos, end, track_all), n);
            for (std::size_t j = 0; j < n; ++j) {
                ASSERT_EQ(avx2.bimodal(j), scalar.bimodal(j));
                for (std::size_t t = 0; t < banks; ++t) {
                    ASSERT_EQ(avx2.flat(j)[t], scalar.flat(j)[t])
                        << geometry.name << " row " << j << " bank " << t;
                    ASSERT_EQ(avx2.tags(j)[t], scalar.tags(j)[t])
                        << geometry.name << " row " << j << " bank " << t;
                }
            }
            pos = end;
        }
    }
    if (vectorized == 0)
        GTEST_SKIP() << "no AVX2 phase 1 on this host";
}

TEST(StorageAudit, TageFamilyBitsUnchangedByArenaLayout)
{
    // The arena refactor changes layout, not accounting: the component
    // trees must still total exactly the pre-refactor values.
    const struct
    {
        const char *name;
        std::uint64_t bits;
    } expected[] = {
        {"tage", 160044},
        {"batage", 233752},
        {"tage-scl", 231795},
        {"filter-tage", 323884},
    };
    for (const auto &[name, bits] : expected) {
        const std::vector<audit::Entry> entries = audit::auditByNames({name});
        ASSERT_EQ(entries.size(), 1u) << name;
        EXPECT_EQ(entries[0].status, audit::Status::kOk) << name;
        EXPECT_EQ(entries[0].derived_bits, bits) << name;
    }
}

} // namespace
