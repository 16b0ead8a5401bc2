#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/statistics.hpp"

namespace youtiao {
namespace {

TEST(Statistics, MinMaxMedian)
{
    const std::vector<double> xs{5.0, 1.0, 4.0, 2.0, 3.0};
    EXPECT_DOUBLE_EQ(minimum(xs), 1.0);
    EXPECT_DOUBLE_EQ(maximum(xs), 5.0);
}

TEST(Statistics, HistogramNormalized)
{
    const std::vector<double> xs{0.1, 0.2, 0.6, 0.9};
    const auto hist = normalizedHistogram(xs, 0.0, 1.0, 2);
    ASSERT_EQ(hist.size(), 2u);
    EXPECT_DOUBLE_EQ(hist[0], 0.5);
    EXPECT_DOUBLE_EQ(hist[1], 0.5);
}

TEST(Statistics, HistogramClampsOutOfRange)
{
    const std::vector<double> xs{-5.0, 5.0};
    const auto hist = normalizedHistogram(xs, 0.0, 1.0, 4);
    EXPECT_DOUBLE_EQ(hist.front(), 0.5);
    EXPECT_DOUBLE_EQ(hist.back(), 0.5);
}

TEST(Statistics, HistogramSkipsNaN)
{
    // NaN used to hit an undefined float->long cast; the documented
    // policy is to drop NaN samples and normalize over the rest.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const std::vector<double> xs{nan, 0.5, 1.5, nan};
    const auto hist = normalizedHistogram(xs, 0.0, 2.0, 2);
    ASSERT_EQ(hist.size(), 2u);
    EXPECT_DOUBLE_EQ(hist[0], 0.5);
    EXPECT_DOUBLE_EQ(hist[1], 0.5);
}

TEST(Statistics, HistogramAllNaNIsAllZero)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const std::vector<double> xs{nan, nan};
    const auto hist = normalizedHistogram(xs, 0.0, 1.0, 3);
    for (double h : hist)
        EXPECT_DOUBLE_EQ(h, 0.0);
}

TEST(Statistics, HistogramClampsInfinitiesToEdgeBins)
{
    // +/-inf overflowed the integer cast (UB; +inf typically landed in
    // bin 0 on x86); they must clamp like any out-of-range sample.
    const double inf = std::numeric_limits<double>::infinity();
    const std::vector<double> xs{-inf, inf};
    const auto hist = normalizedHistogram(xs, 0.0, 1.0, 4);
    EXPECT_DOUBLE_EQ(hist.front(), 0.5);
    EXPECT_DOUBLE_EQ(hist.back(), 0.5);
}

TEST(Statistics, HistogramClampsOutliersBeyondLongRange)
{
    // Quotients beyond the range of long also overflowed the cast.
    const std::vector<double> xs{1e300, -1e300};
    const auto hist = normalizedHistogram(xs, 0.0, 1.0, 4);
    EXPECT_DOUBLE_EQ(hist.front(), 0.5);
    EXPECT_DOUBLE_EQ(hist.back(), 0.5);
}

TEST(Statistics, KlOfIdenticalIsZero)
{
    const std::vector<double> p{0.25, 0.25, 0.5};
    EXPECT_NEAR(klDivergence(p, p), 0.0, 1e-12);
}

TEST(Statistics, JsSymmetricAndBounded)
{
    const std::vector<double> p{0.9, 0.1};
    const std::vector<double> q{0.1, 0.9};
    const double js_pq = jsDivergence(p, q);
    const double js_qp = jsDivergence(q, p);
    EXPECT_NEAR(js_pq, js_qp, 1e-12);
    EXPECT_GT(js_pq, 0.0);
    EXPECT_LE(js_pq, std::log(2.0) + 1e-12);
}

TEST(Statistics, JsOfIdenticalIsZero)
{
    const std::vector<double> p{0.2, 0.3, 0.5};
    EXPECT_NEAR(jsDivergence(p, p), 0.0, 1e-12);
}

TEST(Statistics, JsOfDisjointIsLogTwo)
{
    const std::vector<double> p{1.0, 0.0};
    const std::vector<double> q{0.0, 1.0};
    EXPECT_NEAR(jsDivergence(p, q), std::log(2.0), 1e-9);
}

TEST(Statistics, KFoldCoversEverythingOnce)
{
    const auto folds = kFoldIndices(23, 5);
    ASSERT_EQ(folds.size(), 5u);
    std::vector<int> seen(23, 0);
    for (const auto &fold : folds) {
        EXPECT_FALSE(fold.empty());
        for (std::size_t i : fold)
            ++seen[i];
    }
    for (int s : seen)
        EXPECT_EQ(s, 1);
}

TEST(Statistics, KFoldBalanced)
{
    const auto folds = kFoldIndices(10, 5);
    for (const auto &fold : folds)
        EXPECT_EQ(fold.size(), 2u);
}

TEST(Statistics, KFoldTooFewSamplesThrows)
{
    EXPECT_THROW(kFoldIndices(3, 5), ConfigError);
}

} // namespace
} // namespace youtiao
