#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "common/binfmt.hpp"
#include "common/error.hpp"
#include "common/prng.hpp"

namespace youtiao {
namespace {

TEST(Prng, DeterministicForSameSeed)
{
    Prng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Prng, DifferentSeedsDiverge)
{
    Prng a(1), b(2);
    bool any_diff = false;
    for (int i = 0; i < 16; ++i)
        any_diff |= a.next() != b.next();
    EXPECT_TRUE(any_diff);
}

TEST(Prng, UniformInUnitInterval)
{
    Prng prng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = prng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Prng, UniformRangeRespectsBounds)
{
    Prng prng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = prng.uniform(-3.0, 5.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Prng, UniformMeanNearHalf)
{
    Prng prng(11);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += prng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Prng, UniformIntCoversRange)
{
    Prng prng(3);
    std::set<std::size_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(prng.uniformInt(std::size_t{7}));
    EXPECT_EQ(seen.size(), 7u);
    EXPECT_EQ(*seen.begin(), 0u);
    EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Prng, GaussianMoments)
{
    Prng prng(13);
    const int n = 200000;
    double sum = 0.0, sum_sq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double g = prng.gaussian();
        sum += g;
        sum_sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sum_sq / n, 1.0, 0.02);
}

TEST(Prng, GaussianScaled)
{
    Prng prng(17);
    const int n = 100000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i)
        sum += prng.gaussian(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Prng, BernoulliFrequency)
{
    Prng prng(19);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += prng.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Prng, ShufflePreservesElements)
{
    Prng prng(23);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto w = v;
    prng.shuffle(w);
    std::sort(w.begin(), w.end());
    EXPECT_EQ(v, w);
}

TEST(Prng, UniformIntStreamIsPinned)
{
    // Every forest bootstrap draws its bag through uniformInt(n), so the
    // fitted trees depend on this exact stream. 2^63 + 1 rejects about
    // half of its raw draws, so the rejection loop runs; the raw value
    // taken after each batch pins how many draws the batch consumed.
    const std::uint64_t bounds[] = {1,
                                    2,
                                    7,
                                    1613,
                                    (std::uint64_t{1} << 32) + 1,
                                    (std::uint64_t{1} << 63) + 1,
                                    UINT64_MAX};
    Prng prng(0x5EED);
    std::vector<std::uint64_t> stream;
    for (const std::uint64_t n : bounds) {
        for (int i = 0; i < 1000; ++i) {
            stream.push_back(prng.uniformInt(n));
            ASSERT_LT(stream.back(), n);
        }
        stream.push_back(prng.next());
    }
    EXPECT_EQ(binfmt::fnv1a(stream.data(),
                            stream.size() * sizeof(std::uint64_t)),
              0x1157dfd7375b1ff4ull);
}

/** Bounds for the reciprocal draw: the smallest, 2^k - 1, 2^k and
 *  2^k + 1 for every k, the 2^32 and 2^63 neighbourhoods, the largest,
 *  and seeded random bounds of every bit width. */
std::vector<std::uint64_t>
reciprocalBounds()
{
    std::vector<std::uint64_t> bounds{1, 2, 3, UINT64_MAX};
    for (unsigned k = 1; k < 64; ++k) {
        const std::uint64_t p = std::uint64_t{1} << k;
        bounds.insert(bounds.end(), {p - 1, p, p + 1});
    }
    Prng prng(0xD1CE);
    for (unsigned width = 1; width <= 64; ++width) {
        for (int i = 0; i < 8; ++i) {
            const std::uint64_t top = std::uint64_t{1} << (width - 1);
            bounds.push_back(top | (prng.next() & (top - 1)));
        }
    }
    return bounds;
}

TEST(Prng, ReciprocalRemainderMatchesDivision)
{
    Prng prng(0xF00D);
    for (const std::uint64_t n : reciprocalBounds()) {
        const UniformIntDraw draw(n);
        ASSERT_EQ(draw.limit(), UINT64_MAX - UINT64_MAX % n) << "n " << n;
        std::vector<std::uint64_t> values{0,          1,
                                          n - 1,      n,
                                          draw.limit() - 1,
                                          draw.limit(),
                                          UINT64_MAX, UINT64_MAX - n};
        // Around multiples of n, where a quotient off by one shows.
        for (int i = 0; i < 16; ++i) {
            const std::uint64_t q = prng.next() / n;
            values.insert(values.end(), {q * n, q * n + (n - 1)});
            if (q > 0)
                values.push_back(q * n - 1);
        }
        for (int i = 0; i < 64; ++i)
            values.push_back(prng.next());
        for (const std::uint64_t v : values)
            ASSERT_EQ(draw.remainder(v), v % n) << "n " << n << " v " << v;
    }
    EXPECT_THROW(UniformIntDraw{0}, InternalError);
}

TEST(Prng, SplitDecorrelates)
{
    Prng parent(41);
    Prng child = parent.split();
    // Child and parent should not produce identical streams.
    bool any_diff = false;
    for (int i = 0; i < 16; ++i)
        any_diff |= parent.next() != child.next();
    EXPECT_TRUE(any_diff);
}

} // namespace
} // namespace youtiao
