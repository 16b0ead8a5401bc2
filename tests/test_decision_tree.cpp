#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "noise/decision_tree.hpp"

namespace youtiao {
namespace {

TEST(DecisionTree, ConstantTargetGivesConstantLeaf)
{
    DecisionTree tree;
    const std::vector<double> x{1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
    const std::vector<double> y(6, 3.5);
    tree.fit(x, y);
    EXPECT_DOUBLE_EQ(tree.predict(x[0]), 3.5);
    EXPECT_EQ(tree.nodeCount(), 1u);
}

TEST(DecisionTree, LearnsStepFunction)
{
    DecisionTree tree;
    std::vector<double> x, y;
    for (int i = 0; i < 20; ++i) {
        x.push_back(i);
        y.push_back(i < 10 ? 1.0 : 5.0);
    }
    tree.fit(x, y);
    EXPECT_NEAR(tree.predict(2.0), 1.0, 1e-9);
    EXPECT_NEAR(tree.predict(15.0), 5.0, 1e-9);
}

TEST(DecisionTree, ApproximatesSmoothFunction)
{
    DecisionTreeConfig cfg;
    cfg.maxDepth = 10;
    cfg.minSamplesLeaf = 2;
    cfg.minSamplesSplit = 4;
    DecisionTree tree(cfg);
    std::vector<double> x, y;
    for (int i = 0; i < 200; ++i) {
        const double v = i / 20.0;
        x.push_back(v);
        y.push_back(std::exp(-v));
    }
    tree.fit(x, y);
    double max_err = 0.0;
    for (int i = 0; i < 200; ++i)
        max_err = std::max(max_err, std::abs(tree.predict(x[i]) - y[i]));
    EXPECT_LT(max_err, 0.1);
}

TEST(DecisionTree, RespectsMaxDepth)
{
    DecisionTreeConfig cfg;
    cfg.maxDepth = 2;
    cfg.minSamplesLeaf = 1;
    cfg.minSamplesSplit = 2;
    DecisionTree tree(cfg);
    std::vector<double> x, y;
    for (int i = 0; i < 64; ++i) {
        x.push_back(i);
        y.push_back(i);
    }
    tree.fit(x, y);
    EXPECT_LE(tree.depth(), 2u);
}

TEST(DecisionTree, RespectsMinSamplesLeaf)
{
    DecisionTreeConfig cfg;
    cfg.minSamplesLeaf = 5;
    cfg.minSamplesSplit = 10;
    DecisionTree tree(cfg);
    std::vector<double> x{1, 2, 3, 4, 5, 6};
    std::vector<double> y{0, 0, 0, 1, 1, 1};
    tree.fit(x, y);
    // 6 samples cannot split into two leaves of >= 5.
    EXPECT_EQ(tree.nodeCount(), 1u);
}

TEST(DecisionTree, BaggingSubsetUsed)
{
    DecisionTree tree;
    std::vector<double> x{0, 1, 2, 3, 4, 5, 6, 7};
    std::vector<double> y{0, 0, 0, 0, 9, 9, 9, 9};
    // Restrict to the low half only: prediction everywhere ~0.
    tree.fit(x, y, {0, 1, 2, 3});
    EXPECT_DOUBLE_EQ(tree.predict(7.0), 0.0);
}

TEST(DecisionTree, ErrorsOnBadInput)
{
    DecisionTree tree;
    std::vector<double> x{1, 2};
    std::vector<double> y{1};
    EXPECT_THROW(tree.fit(x, {}), ConfigError);
    EXPECT_THROW(tree.fit(x, y), ConfigError);
    EXPECT_THROW(tree.fit({}, {}), ConfigError);
    EXPECT_THROW(tree.fit(x, x, {2}), ConfigError);
    EXPECT_THROW(tree.predict(x[0]), ConfigError);
    DecisionTreeConfig bad;
    bad.minSamplesLeaf = 4;
    bad.minSamplesSplit = 4;
    EXPECT_THROW(DecisionTree{bad}, ConfigError);
}

TEST(DecisionTree, EqualFeatureValuesNotSplit)
{
    DecisionTree tree;
    std::vector<double> x(10, 1.0); // all identical
    std::vector<double> y{0, 1, 0, 1, 0, 1, 0, 1, 0, 1};
    tree.fit(x, y);
    EXPECT_EQ(tree.nodeCount(), 1u);
    EXPECT_DOUBLE_EQ(tree.predict(1.0), 0.5);
}

} // namespace
} // namespace youtiao
