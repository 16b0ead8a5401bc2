#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "common/binfmt.hpp"
#include "common/error.hpp"
#include "common/prng.hpp"
#include "oracles/retired.hpp"

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

TEST(Prng, UniformIntInclusiveBounds)
{
    Prng prng(5);
    std::set<int> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(uniformInt(prng, -2, 2));
    EXPECT_EQ(seen.size(), 5u);
    EXPECT_TRUE(seen.count(-2));
    EXPECT_TRUE(seen.count(2));
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

TEST(Prng, SampleWithoutReplacementDistinct)
{
    Prng prng(29);
    const auto picks = sampleWithoutReplacement(prng, 50, 20);
    EXPECT_EQ(picks.size(), 20u);
    std::set<std::size_t> unique(picks.begin(), picks.end());
    EXPECT_EQ(unique.size(), 20u);
    for (std::size_t p : picks)
        EXPECT_LT(p, 50u);
}

TEST(Prng, SampleAllIsPermutation)
{
    Prng prng(31);
    const auto picks = sampleWithoutReplacement(prng, 10, 10);
    std::set<std::size_t> unique(picks.begin(), picks.end());
    EXPECT_EQ(unique.size(), 10u);
}

TEST(Prng, SampleTooManyThrows)
{
    Prng prng(37);
    EXPECT_THROW(sampleWithoutReplacement(prng, 3, 4), ConfigError);
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
