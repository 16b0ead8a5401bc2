/**
 * @file
 * One-feature CART regression tree, stored as an interval table.
 *
 * The substrate under the random-forest crosstalk fit (paper Section 4.1),
 * which regresses on one feature, the equivalent distance. Splits
 * minimize the sum of child squared errors; leaves predict the mean
 * target of their samples. Every split cuts the same line, so a fitted
 * tree is its in-order thresholds (strictly increasing) and its leaves.
 *
 * The fit is presorted. With one feature every node is a contiguous run
 * of its samples in x order, so a fit keeps the same samples twice: live,
 * in draw order, and as runs of equal x in x order, each run its count,
 * sum of y and sum of y^2, laid out in O(n) from the rows' x order
 * (sortRowsByX). A node sums its live samples for its totals and leaf
 * mean and partitions them at its split into the order libstdc++'s
 * std::partition gives, computed here without a branch, so every node
 * sums in the order of the per-node-sort fit this replaced and every
 * leaf mean is its bit for bit; the runs need no move. Each node finds
 * its split with one prefix scan of its runs. That scan adds each
 * boundary's prefix sums in another order than a sort of the live
 * samples would, which moves only the rounding of the split gains; a
 * bound on that rounding certifies the scan's decision, and the rare node
 * it cannot certify sorts its live samples and rescans them as one-sample
 * runs (counted as noise.split_rescans). The fitted tree is therefore bit
 * for bit the per-node-sort tree (decision_tree.cpp has the bound).
 */

#ifndef YOUTIAO_NOISE_DECISION_TREE_HPP
#define YOUTIAO_NOISE_DECISION_TREE_HPP

#include <algorithm>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace youtiao {

/** Hyper-parameters of a regression tree. */
struct DecisionTreeConfig
{
    std::size_t maxDepth = 8;
    std::size_t minSamplesLeaf = 3;
    std::size_t minSamplesSplit = 6;
};

/** Row indices of @p x in increasing x, ties by row index: the order a
 *  presorted fit walks. Throws ConfigError on a NaN, which has no place
 *  in it. */
std::vector<std::size_t> sortRowsByX(std::span<const double> x);

/** One training sample as a fit holds it. */
struct TreeSample
{
    double x;
    double y;
};

/**
 * Reorder @p live as std::partition(live, x <= threshold) does in
 * libstdc++ (its two-pointer loop), given @p mid, the number of samples
 * with x <= threshold, and @p slots, scratch of live.size() entries. The
 * fit's leaf sums follow this order, so it is computed here rather than
 * left to the standard library. Throws InternalError if @p mid is not
 * that count.
 */
void partitionAtThreshold(std::span<TreeSample> live, double threshold,
                          std::size_t mid, std::span<std::size_t> slots);

/** Regression tree over one feature. */
class DecisionTree
{
  public:
    explicit DecisionTree(DecisionTreeConfig config = {});

    /** Fit on feature values @p x against @p targets (same size),
     *  restricted to @p sample_indices (for bagging; empty = every row).
     *  @p by_x holds every row index in nondecreasing x, as
     *  sortRowsByX(x) returns (ConfigError otherwise); a forest sorts
     *  once and shares it among its trees. */
    void fit(std::span<const double> x, std::span<const double> targets,
             const std::vector<std::size_t> &sample_indices,
             std::span<const std::size_t> by_x);

    /** Predict the target at @p x; throws before fit(). A walk from the
     *  root goes left iff x <= t, so it ends in leaf #{t : !(x <= t)}:
     *  one binary search, and NaN lands in the rightmost leaf. */
    double
    predict(double x) const
    {
        if (!trained()) // not requireConfig: no message built per call
            throw ConfigError("predict() before fit()");
        const auto past = std::ranges::partition_point(
            thresholds_, [x](double t) { return !(x <= t); });
        return leaves_[static_cast<std::size_t>(past - thresholds_.begin())];
    }

    /** True once fit() has produced at least a root leaf. */
    bool trained() const { return !leaves_.empty(); }

    /** Number of tree nodes, splits plus leaves (diagnostic). */
    std::size_t
    nodeCount() const
    {
        return thresholds_.size() + leaves_.size();
    }

    /** Depth of the deepest leaf (diagnostic). */
    std::size_t depth() const { return depth_; }

  private:
    DecisionTreeConfig config_;
    std::vector<double> thresholds_;
    /** Leaf means left to right, one more than thresholds_. */
    std::vector<double> leaves_;
    std::size_t depth_ = 0;
};

} // namespace youtiao

#endif // YOUTIAO_NOISE_DECISION_TREE_HPP
