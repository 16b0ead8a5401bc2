#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/binfmt.hpp"
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
    forest.fit(x, y, prng);
    double max_err = 0.0;
    for (int i = 10; i < 290; ++i)
        max_err = std::max(max_err, std::abs(forest.predict(x[i]) - y[i]));
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
    forest.fit(x, y, prng);
    EXPECT_EQ(forest.treeCount(), 10u);
    const double pred = forest.predict(1.5);
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
    a.fit(x, y, pa);
    b.fit(x, y, pb);
    for (int i = 0; i < 60; ++i)
        EXPECT_DOUBLE_EQ(a.predict(x[i]), b.predict(x[i]));
}

TEST(RandomForest, ErrorsOnBadConfig)
{
    RandomForestConfig zero;
    zero.treeCount = 0;
    EXPECT_THROW(RandomForest{zero}, ConfigError);
    RandomForest forest;
    EXPECT_THROW(forest.predict(1.0), ConfigError);
}

/** predictBatch over @p rows at 1 and 4 threads must equal predict()
 *  row by row, bit for bit -- EXPECT_EQ on doubles is intentional. */
void
expectBatchMatchesPredict(const RandomForest &forest,
                          const std::vector<double> &rows)
{
    for (const std::size_t threads : {1, 4}) {
        ThreadPool::setGlobalThreadCount(threads);
        std::vector<double> batched(rows.size());
        forest.predictBatch(rows, batched);
        for (std::size_t r = 0; r < rows.size(); ++r)
            EXPECT_EQ(batched[r], forest.predict(rows[r]))
                << "row " << r << " threads " << threads;
    }
    ThreadPool::setGlobalThreadCount(0);
}

TEST(RandomForest, PredictBatchMatchesPerRowPredictExactly)
{
    std::vector<double> x, y;
    for (int i = 0; i < 300; ++i) {
        x.push_back(0.5 + (i % 83) * 0.21);
        y.push_back((i % 11) * 0.4 - 1.0);
    }
    RandomForestConfig cfg;
    cfg.treeCount = 12;
    RandomForest forest(cfg);
    Prng prng(17);
    forest.fit(x, y, prng);

    std::vector<double> rows;
    for (int i = 0; i < 257; ++i) // not a multiple of any chunk size
        rows.push_back(0.3 + (i % 61) * 0.31); // many exact duplicates
    // Split thresholds are training values, so these land exactly on
    // every threshold of every tree.
    rows.insert(rows.end(), x.begin(), x.begin() + 83);
    rows.push_back(-1e300);
    rows.push_back(1e300);
    // NaN fails every `<=`, so it lands in each tree's rightmost leaf.
    rows.push_back(std::numeric_limits<double>::quiet_NaN());
    expectBatchMatchesPredict(forest, rows);
    expectBatchMatchesPredict(
        forest, std::vector<double>(rows.begin(), rows.begin() + 5));
}

// The two Simd cases keep the names of the vector-kernel tests they
// replace. predict() and predictBatch() share one body; these pin the
// batch fan-out (every block split at 1 and 4 threads) to per-row calls.

TEST(Simd, ForestPredictBatchBitIdentical)
{
    // Every row count up to 140: a call splits into 4 blocks at 1 thread
    // and 16 at 4, so short blocks, long blocks and ragged tails all run.
    std::vector<double> x, y;
    for (int i = 0; i < 240; ++i) {
        x.push_back(i * 0.17);
        y.push_back((i % 7) * 0.25);
    }
    RandomForestConfig cfg;
    cfg.treeCount = 9;
    RandomForest forest(cfg);
    Prng prng(41);
    forest.fit(x, y, prng);

    std::vector<double> rows;
    for (int i = 0; i < 140; ++i)
        rows.push_back(i * 0.31);
    for (std::size_t n = 1; n <= rows.size(); ++n)
        expectBatchMatchesPredict(
            forest,
            std::vector<double>(rows.begin(),
                                rows.begin() +
                                    static_cast<std::ptrdiff_t>(n)));
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
        forest.fit(x, *shape.targets, prng);
        expectBatchMatchesPredict(forest, rows);
    }
}

TEST(RandomForest, PredictionsMatchPinnedDigests)
{
    // Tie-heavy seeded data: 400 samples on 24 distinct x values, so
    // every node sorts and partitions runs of equal keys. The digests
    // were recorded from the node-walk forest the interval table
    // replaced; any change to the fit's sort, partition or summation
    // order, to the tie rule or to the tree-order mean moves them.
    std::vector<double> x, y, flat;
    Prng data(0x7E5);
    for (int i = 0; i < 400; ++i) {
        x.push_back(static_cast<double>(data.uniformInt(24)) * 0.25 - 3.0);
        y.push_back(std::sin(x.back()) + data.gaussian(0.0, 0.3));
        flat.push_back(0.75);
    }
    // Probes: every distinct x (so every threshold), the midpoints
    // between them, -0.0 against the 0.0 sample, +-infinity and NaN.
    std::vector<double> probes(x);
    std::sort(probes.begin(), probes.end());
    probes.erase(std::unique(probes.begin(), probes.end()), probes.end());
    const std::size_t distinct = probes.size();
    ASSERT_EQ(distinct, 24u);
    for (std::size_t i = 0; i + 1 < distinct; ++i)
        probes.push_back(0.5 * (probes[i] + probes[i + 1]));
    probes.push_back(-0.0);
    probes.push_back(-std::numeric_limits<double>::infinity());
    probes.push_back(std::numeric_limits<double>::infinity());
    probes.push_back(std::numeric_limits<double>::quiet_NaN());

    struct Shape
    {
        const std::vector<double> *targets;
        std::size_t trees;
        std::size_t depth;
        std::size_t minLeaf;
        std::uint64_t digest;
    };
    // The crosstalk fit's default shape, depth-12 trees with one-sample
    // leaves, no split (constant targets), depth 1, and a single tree.
    for (const Shape &shape :
         {Shape{&y, 40, 8, 3, 0x21f378d6f79a1802ull},
          Shape{&y, 25, 12, 1, 0xfdc8f2fd4bfe0032ull},
          Shape{&flat, 5, 8, 3, 0xfa86d3e41bdd4ba0ull},
          Shape{&y, 7, 1, 3, 0xe0c3445ffaf19b62ull},
          Shape{&y, 1, 8, 3, 0x4115f6d06232181dull}}) {
        RandomForestConfig cfg;
        cfg.treeCount = shape.trees;
        cfg.tree.maxDepth = shape.depth;
        cfg.tree.minSamplesLeaf = shape.minLeaf;
        cfg.tree.minSamplesSplit = 2 * shape.minLeaf;
        RandomForest forest(cfg);
        Prng prng(0x5EED);
        forest.fit(x, *shape.targets, prng);
        std::vector<double> pred;
        for (const double p : probes)
            pred.push_back(forest.predict(p));
        EXPECT_EQ(binfmt::fnv1a(pred.data(), pred.size() * sizeof(double)),
                  shape.digest)
            << shape.trees << " trees, depth " << shape.depth;
        expectBatchMatchesPredict(forest, probes);
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
    forest.fit(x, y, prng);

    std::vector<double> out(3);
    const std::vector<double> rows{0.1, 0.2, 0.3};
    std::vector<double> wrong(2);
    EXPECT_THROW(forest.predictBatch(rows, wrong), ConfigError);
    RandomForest untrained;
    EXPECT_THROW(untrained.predictBatch(rows, out), ConfigError);
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
    forest.fit(x, y, prng);
    double sse = 0.0;
    for (int i = 0; i < 400; ++i) {
        const double err = forest.predict(x[i]) - 2.0 * x[i];
        sse += err * err;
    }
    EXPECT_LT(std::sqrt(sse / 400.0), 0.5);
}

} // namespace
} // namespace youtiao
