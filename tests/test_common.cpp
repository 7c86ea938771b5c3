/**
 * @file
 * Unit tests for the common utility layer: bit helpers, the
 * deterministic RNG, and the bounded FIFO used for hardware queues.
 */

#include <gtest/gtest.h>

#include "common/bits.hpp"
#include "common/fixed_queue.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace smtp
{
namespace
{

TEST(Bits, PowerOfTwoPredicates)
{
    EXPECT_FALSE(isPow2(0));
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(2));
    EXPECT_FALSE(isPow2(3));
    EXPECT_TRUE(isPow2(1ULL << 40));
    EXPECT_FALSE(isPow2((1ULL << 40) + 1));
}

TEST(Bits, Logarithms)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1025), 11u);
}

TEST(Bits, ExtractAndInsert)
{
    std::uint64_t v = 0xDEADBEEFCAFEF00DULL;
    EXPECT_EQ(bits(v, 7, 0), 0x0DULL);
    EXPECT_EQ(bits(v, 15, 8), 0xF0ULL);
    EXPECT_EQ(bits(v, 63, 0), v);
    EXPECT_EQ(insertBits(0, 7, 4, 0xA), 0xA0ULL);
    EXPECT_EQ(insertBits(0xFF, 3, 0, 0), 0xF0ULL);
    // Round trip.
    auto w = insertBits(v, 43, 20, 0x123456);
    EXPECT_EQ(bits(w, 43, 20), 0x123456ULL);
    EXPECT_EQ(bits(w, 19, 0), bits(v, 19, 0));
    EXPECT_EQ(bits(w, 63, 44), bits(v, 63, 44));
}

TEST(Bits, PopCountAndCtz)
{
    EXPECT_EQ(popCount(0), 0u);
    EXPECT_EQ(popCount(0xFFULL), 8u);
    EXPECT_EQ(popCount(~0ULL), 64u);
    EXPECT_EQ(countTrailingZeros(1), 0u);
    EXPECT_EQ(countTrailingZeros(0x80), 7u);
    EXPECT_EQ(countTrailingZeros(0), 64u);
}

TEST(Bits, Rounding)
{
    EXPECT_EQ(roundUp(0, 64), 0ULL);
    EXPECT_EQ(roundUp(1, 64), 64ULL);
    EXPECT_EQ(roundUp(64, 64), 64ULL);
    EXPECT_EQ(roundDown(127, 64), 64ULL);
    EXPECT_EQ(divCeil(0, 8), 0ULL);
    EXPECT_EQ(divCeil(1, 8), 1ULL);
    EXPECT_EQ(divCeil(8, 8), 1ULL);
    EXPECT_EQ(divCeil(9, 8), 2ULL);
}

TEST(Parse, DigitsOnlyAndInRange)
{
    unsigned u = 7;
    EXPECT_TRUE(parseDigits("42", u));
    EXPECT_EQ(u, 42u);
    for (const char *bad : {"", "-1", "+1", " 1", "1 ", "1x", "abc",
                            "4294967296"})
        EXPECT_FALSE(parseDigits(bad, u)) << bad;
    EXPECT_EQ(u, 42u) << "a failed parse must leave the value alone";
    EXPECT_TRUE(parseDigits("4294967295", u));
    std::uint64_t big = 0;
    EXPECT_TRUE(parseDigits("18446744073709551615", big));
    EXPECT_FALSE(parseDigits("18446744073709551616", big));
    EXPECT_TRUE(parseDigits("9", u, 9));
    EXPECT_FALSE(parseDigits("10", u, 9));
}

TEST(Types, LineAndPageAlign)
{
    EXPECT_EQ(lineAlign(0x1000), 0x1000ULL);
    EXPECT_EQ(lineAlign(0x107F), 0x1000ULL);
    EXPECT_EQ(lineAlign(0x1080), 0x1080ULL);
    EXPECT_EQ(pageAlign(0x1FFF), 0x1000ULL);
    EXPECT_EQ(pageAlign(0x2000), 0x2000ULL);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDecorrelate)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 1000; ++i)
        same += a.next() == b.next();
    EXPECT_EQ(same, 0);
}

TEST(Rng, BoundsRespected)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i) {
        auto v = r.below(17);
        EXPECT_LT(v, 17u);
        auto w = r.range(5, 9);
        EXPECT_GE(w, 5u);
        EXPECT_LE(w, 9u);
        auto u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformIsRoughlyUniform)
{
    Rng r(99);
    int buckets[10] = {};
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++buckets[static_cast<int>(r.uniform() * 10)];
    for (int b : buckets) {
        EXPECT_GT(b, n / 10 - n / 50);
        EXPECT_LT(b, n / 10 + n / 50);
    }
}

TEST(Zipf, DeterministicUnderSeed)
{
    ZipfGen z(64, 1.1);
    EXPECT_EQ(z.ranks(), 64u);
    EXPECT_DOUBLE_EQ(z.exponent(), 1.1);
    Rng a(5), b(5), c(6);
    int diverged = 0;
    for (int i = 0; i < 1000; ++i) {
        std::size_t ra = z.sample(a);
        EXPECT_EQ(ra, z.sample(b));
        diverged += ra != z.sample(c);
        EXPECT_LT(ra, 64u);
    }
    EXPECT_GT(diverged, 0);
}

TEST(Zipf, RankFrequencySlopeMatchesExponent)
{
    // The defining property: frequency(rank) ~ rank^-s, i.e. the
    // log-log rank/frequency line has slope -s. Fit the slope over the
    // well-populated head ranks by least squares and require it within
    // a tolerance that Poisson noise at 200k draws comfortably meets.
    const double s = 1.2;
    ZipfGen z(32, s);
    Rng rng(123);
    const int n = 200000;
    std::uint64_t counts[32] = {};
    for (int i = 0; i < n; ++i)
        ++counts[z.sample(rng)];
    // Most-popular-first must hold at the head.
    EXPECT_GT(counts[0], counts[1]);
    EXPECT_GT(counts[1], counts[3]);

    const int head = 8;
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    for (int r = 0; r < head; ++r) {
        ASSERT_GT(counts[r], 0u) << "rank " << r;
        double x = std::log(static_cast<double>(r + 1));
        double y = std::log(static_cast<double>(counts[r]));
        sx += x;
        sy += y;
        sxx += x * x;
        sxy += x * y;
    }
    double slope = (head * sxy - sx * sy) / (head * sxx - sx * sx);
    EXPECT_NEAR(slope, -s, 0.1);
}

TEST(Zipf, ZeroExponentIsUniform)
{
    // s = 0 degenerates to the uniform distribution: every rank gets
    // 1/n of the mass (same tolerance as the raw Rng uniformity test).
    ZipfGen z(10, 0.0);
    Rng rng(99);
    const int n = 100000;
    int counts[10] = {};
    for (int i = 0; i < n; ++i)
        ++counts[z.sample(rng)];
    for (int c : counts) {
        EXPECT_GT(c, n / 10 - n / 50);
        EXPECT_LT(c, n / 10 + n / 50);
    }
}

TEST(FixedQueue, BasicFifo)
{
    FixedQueue<int> q(3);
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(q.full());
    q.push(1);
    q.push(2);
    q.push(3);
    EXPECT_TRUE(q.full());
    EXPECT_FALSE(q.tryPush(4));
    EXPECT_EQ(q.pop(), 1);
    EXPECT_TRUE(q.tryPush(4));
    EXPECT_EQ(q.pop(), 2);
    EXPECT_EQ(q.pop(), 3);
    EXPECT_EQ(q.pop(), 4);
    EXPECT_TRUE(q.empty());
}

TEST(FixedQueue, FreeSlotsTracksOccupancy)
{
    FixedQueue<int> q(8);
    EXPECT_EQ(q.freeSlots(), 8u);
    for (int i = 0; i < 5; ++i)
        q.push(i);
    EXPECT_EQ(q.freeSlots(), 3u);
    q.pop();
    EXPECT_EQ(q.freeSlots(), 4u);
    q.clear();
    EXPECT_EQ(q.freeSlots(), 8u);
}

TEST(FixedQueueDeath, PushWhenFullPanics)
{
    FixedQueue<int> q(1);
    q.push(0);
    EXPECT_DEATH(q.push(1), "full");
}

} // namespace
} // namespace smtp
