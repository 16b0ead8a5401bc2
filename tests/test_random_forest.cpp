#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "noise/random_forest.hpp"

namespace youtiao {
namespace {

TEST(RandomForest, FitsExponentialDecay)
{
    RandomForest forest;
    std::vector<double> x, y;
    for (int i = 0; i < 300; ++i) {
        const double v = i / 30.0;
        x.push_back(v);
        y.push_back(std::exp(-0.5 * v));
    }
    Prng prng(1);
    forest.fit(x, 1, y, prng);
    double max_err = 0.0;
    for (int i = 10; i < 290; ++i)
        max_err = std::max(max_err,
                           std::abs(forest.predict({&x[i], 1}) - y[i]));
    EXPECT_LT(max_err, 0.08);
}

TEST(RandomForest, AveragesTrees)
{
    RandomForestConfig cfg;
    cfg.treeCount = 10;
    RandomForest forest(cfg);
    std::vector<double> x{1, 2, 3, 4, 5, 6, 7, 8};
    std::vector<double> y{1, 1, 1, 1, 2, 2, 2, 2};
    Prng prng(2);
    forest.fit(x, 1, y, prng);
    EXPECT_EQ(forest.treeCount(), 10u);
    const double probe = 1.5;
    const double pred = forest.predict({&probe, 1});
    EXPECT_GE(pred, 1.0);
    EXPECT_LE(pred, 2.0);
}

TEST(RandomForest, DeterministicGivenSeed)
{
    std::vector<double> x, y;
    for (int i = 0; i < 60; ++i) {
        x.push_back(i);
        y.push_back(i % 7);
    }
    RandomForest a, b;
    Prng pa(5), pb(5);
    a.fit(x, 1, y, pa);
    b.fit(x, 1, y, pb);
    for (int i = 0; i < 60; ++i)
        EXPECT_DOUBLE_EQ(a.predict({&x[i], 1}), b.predict({&x[i], 1}));
}

TEST(RandomForest, BootstrapFractionReducesVarietyNotCrash)
{
    RandomForestConfig cfg;
    cfg.treeCount = 5;
    cfg.bootstrapFraction = 0.5;
    RandomForest forest(cfg);
    std::vector<double> x{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    std::vector<double> y{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    Prng prng(3);
    forest.fit(x, 1, y, prng);
    const double probe = 5.0;
    const double pred = forest.predict({&probe, 1});
    EXPECT_GT(pred, 1.0);
    EXPECT_LT(pred, 10.0);
}

TEST(RandomForest, ErrorsOnBadConfig)
{
    RandomForestConfig zero;
    zero.treeCount = 0;
    EXPECT_THROW(RandomForest{zero}, ConfigError);
    RandomForestConfig frac;
    frac.bootstrapFraction = 0.0;
    EXPECT_THROW(RandomForest{frac}, ConfigError);
    RandomForest forest;
    const double probe = 1.0;
    EXPECT_THROW(forest.predict({&probe, 1}), ConfigError);
}

/** predictBatch over @p rows at 1 and 4 threads must equal predict()
 *  row by row, bit for bit -- EXPECT_EQ on doubles is intentional. */
void
expectBatchMatchesPredict(const RandomForest &forest,
                          const std::vector<double> &rows,
                          std::size_t feature_count)
{
    const std::size_t row_count = rows.size() / feature_count;
    for (const std::size_t threads : {1, 4}) {
        ThreadPool::setGlobalThreadCount(threads);
        std::vector<double> batched(row_count);
        forest.predictBatch(rows, feature_count, batched);
        for (std::size_t r = 0; r < row_count; ++r) {
            const std::span<const double> row(&rows[r * feature_count],
                                              feature_count);
            EXPECT_EQ(batched[r], forest.predict(row))
                << "row " << r << " threads " << threads;
        }
    }
    ThreadPool::setGlobalThreadCount(0);
}

TEST(RandomForest, PredictBatchMatchesPerRowPredictExactly)
{
    // A multi-feature forest takes the per-row walk in every block.
    constexpr std::size_t kFeatures = 3;
    constexpr std::size_t kRows = 257; // not a multiple of any chunk size
    std::vector<double> x, y;
    Prng noise(21);
    for (std::size_t i = 0; i < 300; ++i) {
        const double a = noise.uniform(0.0, 4.0);
        const double b = noise.uniform(-1.0, 1.0);
        const double c = noise.uniform(0.0, 10.0);
        x.insert(x.end(), {a, b, c});
        y.push_back(a * a - 2.0 * b + 0.3 * c + noise.gaussian(0.0, 0.1));
    }
    RandomForest forest;
    Prng prng(22);
    forest.fit(x, kFeatures, y, prng);

    std::vector<double> rows;
    Prng probe(23);
    for (std::size_t r = 0; r < kRows * kFeatures; ++r)
        rows.push_back(probe.uniform(-2.0, 12.0));
    expectBatchMatchesPredict(forest, rows, kFeatures);

    // Single-feature case, the crosstalk model's shape: NaN-free blocks
    // of at least 8 rows take the interval-table sweep instead.
    std::vector<double> x1, y1;
    for (int i = 0; i < 300; ++i) {
        x1.push_back(0.5 + (i % 83) * 0.21);
        y1.push_back((i % 11) * 0.4 - 1.0);
    }
    RandomForestConfig cfg;
    cfg.treeCount = 12;
    RandomForest single(cfg);
    Prng prng1(17);
    single.fit(x1, 1, y1, prng1);

    std::vector<double> rows1;
    for (int i = 0; i < 257; ++i)
        rows1.push_back(0.3 + (i % 61) * 0.31); // many exact duplicates
    // Split thresholds are training values, so these land exactly on
    // every threshold of every tree.
    rows1.insert(rows1.end(), x1.begin(), x1.begin() + 83);
    rows1.push_back(-1e300);
    rows1.push_back(1e300);
    expectBatchMatchesPredict(single, rows1, 1);

    // A NaN row sends its block to the walk (NaN fails every `<=`, so
    // it lands in each tree's rightmost leaf); the other blocks sweep.
    rows1.push_back(std::numeric_limits<double>::quiet_NaN());
    expectBatchMatchesPredict(single, rows1, 1);

    // Fewer than 8 rows never repay the sort and take the walk.
    expectBatchMatchesPredict(
        single, std::vector<double>(rows1.begin(), rows1.begin() + 5), 1);
}

// The two Simd cases keep the names of the vector-kernel tests they
// replace. With one body per kernel, the bodies left to agree are the
// interval-table sweep and the per-row walk, and the block chooses.

TEST(Simd, ForestPredictBatchBitIdentical)
{
    // Every row count up to 140: a call splits into 4 blocks at 1 thread
    // and 16 at 4, so the single-feature forest meets calls that only
    // walk, only sweep, and sweep most blocks but walk a short tail. The
    // two-feature forest walks every block.
    std::vector<double> x1, x2, y;
    for (int i = 0; i < 240; ++i) {
        x1.push_back(i * 0.17);
        x2.push_back(i * 0.17);
        x2.push_back((i % 13) * 0.9);
        y.push_back((i % 7) * 0.25);
    }
    RandomForestConfig cfg;
    cfg.treeCount = 9;
    RandomForest one(cfg);
    RandomForest two(cfg);
    Prng prng1(41);
    Prng prng2(41);
    one.fit(x1, 1, y, prng1);
    two.fit(x2, 2, y, prng2);

    std::vector<double> rows1, rows2;
    for (int i = 0; i < 140; ++i) {
        rows1.push_back(i * 0.31);
        rows2.push_back(i * 0.31);
        rows2.push_back((i % 17) * 0.6);
    }
    for (std::size_t n = 1; n <= rows1.size(); ++n) {
        const auto count = static_cast<std::ptrdiff_t>(n);
        expectBatchMatchesPredict(
            one, std::vector<double>(rows1.begin(), rows1.begin() + count),
            1);
        expectBatchMatchesPredict(
            two,
            std::vector<double>(rows2.begin(), rows2.begin() + 2 * count),
            2);
    }
}

TEST(Simd, ForestSingleFeatureMergeBitIdentical)
{
    // Degenerate interval tables: constant targets leave each tree one
    // leaf and no split, depth-1 trees hold one split, and a one-tree
    // forest divides by 1. The probes hit every training value (each
    // threshold), -0.0 against a 0.0 threshold, +-infinity, and a block
    // of one repeated value.
    std::vector<double> x, flat, step;
    for (int i = 0; i < 64; ++i) {
        x.push_back((i - 32) * 0.25); // 0.0 at i == 32
        flat.push_back(1.5);
        step.push_back(i <= 32 ? -1.0 : 2.0);
    }
    std::vector<double> rows(x);
    rows.push_back(-0.0);
    rows.push_back(-std::numeric_limits<double>::infinity());
    rows.push_back(std::numeric_limits<double>::infinity());
    rows.insert(rows.end(), 40, 0.125);

    struct Shape
    {
        const std::vector<double> *targets;
        std::size_t trees;
        std::size_t depth;
    };
    for (const Shape &shape : {Shape{&flat, 5, 8}, Shape{&step, 7, 1},
                               Shape{&step, 1, 8}}) {
        RandomForestConfig cfg;
        cfg.treeCount = shape.trees;
        cfg.tree.maxDepth = shape.depth;
        RandomForest forest(cfg);
        Prng prng(17);
        forest.fit(x, 1, *shape.targets, prng);
        expectBatchMatchesPredict(forest, rows, 1);
    }
}

TEST(RandomForest, PredictBatchRejectsBadShapes)
{
    std::vector<double> x, y;
    for (int i = 0; i < 50; ++i) {
        x.push_back(i * 0.1);
        y.push_back(i * 0.2);
    }
    RandomForest forest;
    Prng prng(24);
    forest.fit(x, 1, y, prng);

    std::vector<double> out(3);
    const std::vector<double> rows{0.1, 0.2, 0.3};
    EXPECT_THROW(forest.predictBatch(rows, 0, out), ConfigError);
    EXPECT_THROW(forest.predictBatch(rows, 2, out), ConfigError);
    std::vector<double> wrong(2);
    EXPECT_THROW(forest.predictBatch(rows, 1, wrong), ConfigError);
    RandomForest untrained;
    EXPECT_THROW(untrained.predictBatch(rows, 1, out), ConfigError);
}

TEST(RandomForest, SmootherThanSingleTreeOnNoisyData)
{
    // Forest variance on noisy data should not exceed a single tree's by
    // construction of averaging; spot-check the forest stays near truth.
    std::vector<double> x, y;
    Prng noise(7);
    for (int i = 0; i < 400; ++i) {
        const double v = i / 40.0;
        x.push_back(v);
        y.push_back(2.0 * v + noise.gaussian(0.0, 0.5));
    }
    RandomForest forest;
    Prng prng(8);
    forest.fit(x, 1, y, prng);
    double sse = 0.0;
    for (int i = 0; i < 400; ++i) {
        const double err = forest.predict({&x[i], 1}) - 2.0 * x[i];
        sse += err * err;
    }
    EXPECT_LT(std::sqrt(sse / 400.0), 0.5);
}

} // namespace
} // namespace youtiao
