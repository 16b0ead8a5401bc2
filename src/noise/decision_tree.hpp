/**
 * @file
 * CART-style regression tree.
 *
 * The substrate under the random-forest crosstalk fit (paper Section 4.1).
 * Splits minimize the weighted sum of child variances; leaves predict the
 * mean target of their training samples.
 */

#ifndef YOUTIAO_NOISE_DECISION_TREE_HPP
#define YOUTIAO_NOISE_DECISION_TREE_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace youtiao {

/**
 * Contiguous SoA node pool holding one or more flattened trees. Walking a
 * tree touches four parallel arrays instead of pointer-sized Node structs,
 * so batch inference streams through cache lines; a pool can hold a whole
 * forest back to back (see DecisionTree::appendFlattened).
 */
struct FlatTreeNodes
{
    /** Split feature per node; kFlatLeaf marks a leaf. */
    std::vector<std::int32_t> feature;
    /** Split threshold per node ("<=" goes left; unused on leaves). */
    std::vector<double> threshold;
    /** Leaf prediction per node (unused on splits). */
    std::vector<double> value;
    std::vector<std::uint32_t> left;
    std::vector<std::uint32_t> right;

    static constexpr std::int32_t kFlatLeaf = -1;

    std::size_t size() const { return feature.size(); }

    /** Walk one tree rooted at @p root for @p row. */
    double predictRow(std::uint32_t root, std::span<const double> row) const
    {
        std::uint32_t at = root;
        while (feature[at] != kFlatLeaf)
            at = row[static_cast<std::size_t>(feature[at])] <= threshold[at]
                     ? left[at]
                     : right[at];
        return value[at];
    }
};

/** Hyper-parameters of a regression tree. */
struct DecisionTreeConfig
{
    std::size_t maxDepth = 8;
    std::size_t minSamplesLeaf = 3;
    std::size_t minSamplesSplit = 6;
};

/**
 * Regression tree over dense feature rows.
 *
 * Features are row-major: sample i occupies
 * features[i * featureCount .. (i+1) * featureCount).
 */
class DecisionTree
{
  public:
    explicit DecisionTree(DecisionTreeConfig config = {});

    /**
     * Fit on @p features (n x featureCount, row-major) against @p targets
     * (size n). Optionally restrict to @p sample_indices (for bagging).
     */
    void fit(std::span<const double> features, std::size_t feature_count,
             std::span<const double> targets,
             const std::vector<std::size_t> &sample_indices = {});

    /** Predict one sample (featureCount values). */
    double predict(std::span<const double> row) const;

    /**
     * Append this tree's nodes to @p out in SoA layout (child indices
     * rebased onto the pool) and return the index of its root.
     */
    std::uint32_t appendFlattened(FlatTreeNodes &out) const;

    /** True once fit() has produced at least a root leaf. */
    bool trained() const { return !nodes_.empty(); }

    /** Number of tree nodes (diagnostic). */
    std::size_t nodeCount() const { return nodes_.size(); }

    /** Depth of the deepest leaf (diagnostic). */
    std::size_t depth() const;

  private:
    struct Node
    {
        // Leaf when feature == kLeaf.
        std::size_t feature = kLeaf;
        double threshold = 0.0;
        double value = 0.0;      // leaf prediction
        std::size_t left = 0;    // child indices (valid when not leaf)
        std::size_t right = 0;
        std::size_t nodeDepth = 0;
    };
    static constexpr std::size_t kLeaf = static_cast<std::size_t>(-1);

    std::size_t build(std::span<const double> features,
                      std::size_t feature_count,
                      std::span<const double> targets,
                      std::vector<std::size_t> &indices, std::size_t begin,
                      std::size_t end, std::size_t node_depth);

    DecisionTreeConfig config_;
    std::size_t featureCount_ = 0;
    std::vector<Node> nodes_;
};

} // namespace youtiao

#endif // YOUTIAO_NOISE_DECISION_TREE_HPP
