/**
 * @file
 * Unit and property tests for the utilities library: saturating counters,
 * hashes, history registers, folded history, LFSR, flat hash map.
 */
#include "mbp/utils/bits.hpp"
#include "mbp/utils/flat_hash_map.hpp"
#include "mbp/utils/hash.hpp"
#include "mbp/utils/history.hpp"
#include "mbp/utils/lfsr.hpp"
#include "mbp/utils/sat_counter.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <random>

using namespace mbp;

TEST(SatCounter, SignedRange)
{
    EXPECT_EQ(i2::kMin, -2);
    EXPECT_EQ(i2::kMax, 1);
    EXPECT_EQ((SatCounter<3>::kMin), -4);
    EXPECT_EQ((SatCounter<3>::kMax), 3);
}

TEST(SatCounter, UnsignedRange)
{
    EXPECT_EQ(u2::kMin, 0);
    EXPECT_EQ(u2::kMax, 3);
    EXPECT_EQ((SatCounter<1, false>::kMax), 1);
}

TEST(SatCounter, SaturatesUp)
{
    i2 c;
    for (int i = 0; i < 10; ++i)
        ++c;
    EXPECT_EQ(c.value(), 1);
    EXPECT_TRUE(c.isSaturated());
}

TEST(SatCounter, SaturatesDown)
{
    i2 c;
    for (int i = 0; i < 10; ++i)
        --c;
    EXPECT_EQ(c.value(), -2);
    EXPECT_TRUE(c.isSaturated());
}

TEST(SatCounter, SumOrSub)
{
    i2 c;
    c.sumOrSub(true);
    EXPECT_EQ(c.value(), 1);
    c.sumOrSub(false);
    c.sumOrSub(false);
    EXPECT_EQ(c.value(), -1);
    EXPECT_TRUE(c < 0) << "predicts not-taken";
}

TEST(SatCounter, ClampingConstructorAndSet)
{
    i2 c(100);
    EXPECT_EQ(c.value(), 1);
    c.set(-100);
    EXPECT_EQ(c.value(), -2);
    u3 u(-5);
    EXPECT_EQ(u.value(), 0);
}

TEST(SatCounter, PlusEqualsSaturates)
{
    SatCounter<4> c;
    c += 100;
    EXPECT_EQ(c.value(), 7);
    c -= 1000;
    EXPECT_EQ(c.value(), -8);
}

TEST(SatCounter, Weaken)
{
    i3 c(3);
    c.weaken();
    EXPECT_EQ(c.value(), 2);
    i3 d(-2);
    d.weaken();
    EXPECT_EQ(d.value(), -1);
    i3 z(0);
    z.weaken();
    EXPECT_EQ(z.value(), 0);
}

TEST(SatCounter, WeakStates)
{
    EXPECT_TRUE(i2(0).isWeak());
    EXPECT_TRUE(i2(-1).isWeak());
    EXPECT_FALSE(i2(1).isWeak());
    EXPECT_TRUE(u2(2).isWeak());
    EXPECT_TRUE(u2(1).isWeak());
    EXPECT_FALSE(u2(0).isWeak());
}

/** Property: a signed counter always stays in range under random ops. */
class SatCounterProperty : public testing::TestWithParam<int>
{};

TEST_P(SatCounterProperty, StaysInRange)
{
    std::mt19937 rng(GetParam());
    SatCounter<5> c;
    for (int i = 0; i < 10000; ++i) {
        switch (rng() % 4) {
          case 0: ++c; break;
          case 1: --c; break;
          case 2: c += int(rng() % 64) - 32; break;
          default: c.sumOrSub(rng() & 1); break;
        }
        ASSERT_GE(c.value(), (SatCounter<5>::kMin));
        ASSERT_LE(c.value(), (SatCounter<5>::kMax));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatCounterProperty, testing::Range(0, 8));

TEST(Bits, MaskBits)
{
    EXPECT_EQ(util::maskBits(0), 0u);
    EXPECT_EQ(util::maskBits(1), 1u);
    EXPECT_EQ(util::maskBits(12), 0xfffu);
    EXPECT_EQ(util::maskBits(64), ~0ull);
}

TEST(Bits, Log2Helpers)
{
    EXPECT_EQ(util::ceilLog2(1), 0);
    EXPECT_EQ(util::ceilLog2(5), 3);
    EXPECT_EQ(util::floorLog2(5), 2);
    EXPECT_TRUE(util::isPow2(4096));
    EXPECT_FALSE(util::isPow2(0));
    EXPECT_FALSE(util::isPow2(12));
}

TEST(XorFold, FoldsChunks)
{
    // 0xABCD folded to 8 bits = 0xAB ^ 0xCD.
    EXPECT_EQ(XorFold(0xabcd, 8), 0xabu ^ 0xcdu);
    // Values below the width are unchanged.
    EXPECT_EQ(XorFold(0x3f, 8), 0x3fu);
    EXPECT_EQ(XorFold(0, 13), 0u);
}

TEST(XorFold, MatchesChunkReference)
{
    // XorFold folds by doubling; it must equal the XOR of every
    // width-bit chunk of the value, for every width it accepts.
    Lfsr rng(5);
    for (int width = 1; width <= 63; ++width) {
        for (int i = 0; i < 300; ++i) {
            const std::uint64_t value =
                i == 0 ? ~std::uint64_t(0) : rng.next() >> (i % 64);
            std::uint64_t chunks = 0;
            for (int shift = 0; shift < 64; shift += width)
                chunks ^= (value >> shift) & util::maskBits(width);
            ASSERT_EQ(XorFold(value, width), chunks)
                << "width " << width << " value " << value;
        }
    }
    static_assert(XorFold(0xabcd, 8) == (0xabu ^ 0xcdu));
}

TEST(XorFold, ResultAlwaysInRange)
{
    Lfsr rng(3);
    for (int width = 1; width <= 24; ++width) {
        for (int i = 0; i < 200; ++i)
            ASSERT_LT(XorFold(rng.next(), width), 1ull << width);
    }
}

TEST(GlobalHistory, PushAndIndex)
{
    GlobalHistory h(100);
    h.push(true);
    h.push(false);
    h.push(true); // newest
    EXPECT_TRUE(h[0]);
    EXPECT_FALSE(h[1]);
    EXPECT_TRUE(h[2]);
    EXPECT_FALSE(h[3]) << "untouched bits are zero";
    EXPECT_EQ(h.low(3), 0b101u);
}

TEST(GlobalHistory, CapacityTrimming)
{
    GlobalHistory h(5);
    for (int i = 0; i < 64; ++i)
        h.push(true);
    EXPECT_EQ(h.low(5), 0b11111u);
    h.push(false);
    EXPECT_EQ(h.low(5), 0b11110u);
}

TEST(GlobalHistory, CrossWordBoundary)
{
    GlobalHistory h(130);
    // Push a recognizable pattern of 130 bits.
    for (int i = 0; i < 130; ++i)
        h.push(i % 3 == 0);
    // Oldest pushed bit (i=0, true) is now at index 129.
    EXPECT_TRUE(h[129]);
    for (int i = 0; i < 130; ++i)
        ASSERT_EQ(h[i], (129 - i) % 3 == 0) << "index " << i;
}

TEST(GlobalHistory, FoldMatchesXorFoldForShortHistories)
{
    GlobalHistory h(64);
    Lfsr rng(11);
    for (int i = 0; i < 64; ++i)
        h.push(rng.next() & 1);
    for (int len : {5, 17, 31, 64}) {
        for (int width : {4, 7, 13}) {
            EXPECT_EQ(h.fold(len, width), XorFold(h.low(len), width))
                << "len " << len << " width " << width;
        }
    }
}

/** Property: FoldedHistory tracks GlobalHistory::fold exactly. */
class FoldedHistoryProperty
    : public testing::TestWithParam<std::tuple<int, int>>
{};

TEST_P(FoldedHistoryProperty, MatchesRecomputedFold)
{
    auto [length, width] = GetParam();
    GlobalHistory h(length);
    FoldedHistory f(length, width);
    Lfsr rng(length * 131 + width);
    for (int i = 0; i < 3000; ++i) {
        bool bit = rng.next() & 1;
        bool evicted = h[length - 1];
        h.push(bit);
        f.update(bit, evicted);
        ASSERT_EQ(f.value(), h.fold(length, width))
            << "diverged at step " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, FoldedHistoryProperty,
    testing::Combine(testing::Values(3, 12, 13, 20, 64, 130, 232),
                     testing::Values(4, 10, 11, 13)));

TEST(PathHistory, PacksLowIpBits)
{
    PathHistory p(4, 8);
    p.push(0x1234); // (0x1234 >> 2) & 0xf = 0xd
    EXPECT_EQ(p.value(), 0xdu);
    p.push(0x10); // (0x10 >> 2) & 0xf = 0x4
    EXPECT_EQ(p.value(), 0xd4u);
}

TEST(PathHistory, BoundedDepth)
{
    PathHistory p(4, 4);
    for (int i = 0; i < 100; ++i)
        p.push(0xfffffff);
    EXPECT_LE(p.value(), util::maskBits(16));
}

TEST(Lfsr, DeterministicAndNonZero)
{
    Lfsr a(42), b(42);
    for (int i = 0; i < 1000; ++i) {
        auto v = a.next();
        ASSERT_EQ(v, b.next());
        ASSERT_NE(v, 0u);
    }
}

TEST(Lfsr, ZeroSeedRemapped)
{
    Lfsr z(0);
    EXPECT_NE(z.next(), 0u);
}

TEST(Lfsr, BitsInRange)
{
    Lfsr rng(7);
    for (int i = 0; i < 1000; ++i)
        ASSERT_LT(rng.bits(5), 32u);
}

TEST(Lfsr, RoughlyUniformBits)
{
    Lfsr rng(9);
    int counts[8] = {};
    const int n = 80000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.bits(3)];
    for (int c : counts) {
        EXPECT_GT(c, n / 8 - n / 40);
        EXPECT_LT(c, n / 8 + n / 40);
    }
}

TEST(FlatHashMap, InsertAndFind)
{
    util::FlatHashMap<int> map;
    map[10] = 1;
    map[20] = 2;
    EXPECT_EQ(map.size(), 2u);
    ASSERT_NE(map.find(10), nullptr);
    EXPECT_EQ(*map.find(10), 1);
    EXPECT_EQ(map.find(30), nullptr);
}

TEST(FlatHashMap, ZeroKeyWorks)
{
    util::FlatHashMap<int> map;
    map[0] = 7;
    ASSERT_NE(map.find(0), nullptr);
    EXPECT_EQ(*map.find(0), 7);
}

TEST(FlatHashMap, GrowthKeepsAllEntries)
{
    util::FlatHashMap<std::uint64_t> map;
    std::mt19937_64 rng(5);
    std::map<std::uint64_t, std::uint64_t> reference;
    for (int i = 0; i < 50000; ++i) {
        std::uint64_t k = rng() % 30000;
        std::uint64_t v = rng();
        map[k] = v;
        reference[k] = v;
    }
    EXPECT_EQ(map.size(), reference.size());
    for (const auto &[k, v] : reference) {
        ASSERT_NE(map.find(k), nullptr) << k;
        ASSERT_EQ(*map.find(k), v) << k;
    }
    // forEach visits every entry exactly once.
    std::size_t visited = 0;
    map.forEach([&](std::uint64_t k, std::uint64_t v) {
        ++visited;
        ASSERT_EQ(reference.at(k), v);
    });
    EXPECT_EQ(visited, reference.size());
}

TEST(FlatHashMap, ClearKeepsWorking)
{
    util::FlatHashMap<int> map;
    for (std::uint64_t i = 0; i < 100; ++i)
        map[i] = int(i);
    map.clear();
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.find(5), nullptr);
    map[5] = 55;
    EXPECT_EQ(*map.find(5), 55);
}

TEST(Hash, Mix64AvalanchesLowBits)
{
    // Flipping one input bit should flip many output bits on average.
    int total = 0;
    for (int bit = 0; bit < 64; ++bit)
        total += std::popcount(mix64(1) ^ mix64(1 ^ (1ull << bit)));
    EXPECT_GT(total / 64, 20);
}

TEST(Hash, SkewHashBanksDiffer)
{
    // The same key should map to different indices in different banks for
    // the vast majority of keys.
    Lfsr rng(123);
    int collisions = 0;
    for (int i = 0; i < 1000; ++i) {
        std::uint64_t key = rng.next();
        if (skewHash(key, 1, 12) == skewHash(key, 2, 12))
            ++collisions;
    }
    EXPECT_LT(collisions, 20);
}

TEST(GlobalHistory, MatchesNaiveReferenceModel)
{
    // Property: GlobalHistory behaves exactly like a deque of bools.
    GlobalHistory h(97);
    std::vector<bool> reference; // newest at front
    std::mt19937 rng(23);
    for (int step = 0; step < 5000; ++step) {
        bool bit = rng() & 1;
        h.push(bit);
        reference.insert(reference.begin(), bit);
        if (reference.size() > 97)
            reference.pop_back();
        // Spot-check a few random indices each step.
        for (int probe = 0; probe < 3; ++probe) {
            int i = int(rng() % reference.size());
            ASSERT_EQ(h[i], reference[std::size_t(i)])
                << "step " << step << " index " << i;
        }
    }
    // And the fold agrees with a naive recomputation.
    for (int width : {5, 11, 16}) {
        std::uint64_t naive = 0;
        for (int a = 0; a < 97; ++a) {
            if (reference[std::size_t(a)])
                naive ^= std::uint64_t(1) << (a % width);
        }
        EXPECT_EQ(h.fold(97, width), naive);
    }
}
