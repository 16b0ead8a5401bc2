#include "noise/decision_tree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/error.hpp"

namespace youtiao {

DecisionTree::DecisionTree(DecisionTreeConfig config)
    : config_(config)
{
    requireConfig(config_.minSamplesLeaf >= 1,
                  "minSamplesLeaf must be at least 1");
    requireConfig(config_.minSamplesSplit >= 2 * config_.minSamplesLeaf,
                  "minSamplesSplit must allow two legal leaves");
}

void
DecisionTree::fit(std::span<const double> features,
                  std::size_t feature_count,
                  std::span<const double> targets,
                  const std::vector<std::size_t> &sample_indices)
{
    requireConfig(feature_count > 0, "need at least one feature");
    requireConfig(features.size() == targets.size() * feature_count,
                  "feature matrix size mismatch");
    requireConfig(!targets.empty(), "cannot fit on zero samples");

    featureCount_ = feature_count;
    nodes_.clear();

    std::vector<std::size_t> indices;
    if (sample_indices.empty()) {
        indices.resize(targets.size());
        std::iota(indices.begin(), indices.end(), 0);
    } else {
        indices = sample_indices;
        for (std::size_t i : indices)
            requireConfig(i < targets.size(),
                          "bagging index out of range");
    }
    build(features, feature_count, targets, indices, 0, indices.size(), 0);
}

std::size_t
DecisionTree::build(std::span<const double> features,
                    std::size_t feature_count,
                    std::span<const double> targets,
                    std::vector<std::size_t> &indices, std::size_t begin,
                    std::size_t end, std::size_t node_depth)
{
    const std::size_t count = end - begin;
    double sum = 0.0, sum_sq = 0.0;
    for (std::size_t k = begin; k < end; ++k) {
        const double y = targets[indices[k]];
        sum += y;
        sum_sq += y * y;
    }
    const double node_mean = sum / static_cast<double>(count);
    const double node_sse = sum_sq - sum * node_mean;

    const std::size_t node_index = nodes_.size();
    nodes_.push_back(Node{kLeaf, 0.0, node_mean, 0, 0, node_depth});

    const bool can_split = node_depth < config_.maxDepth &&
                           count >= config_.minSamplesSplit &&
                           node_sse > 1e-18;
    if (!can_split)
        return node_index;

    // Exhaustive best split: for each feature, sort the index range by the
    // feature and scan boundary positions, minimizing child SSE.
    double best_gain = 0.0;
    std::size_t best_feature = kLeaf;
    double best_threshold = 0.0;
    std::vector<std::size_t> scratch(indices.begin() +
                                         static_cast<long>(begin),
                                     indices.begin() +
                                         static_cast<long>(end));
    for (std::size_t f = 0; f < feature_count; ++f) {
        std::sort(scratch.begin(), scratch.end(),
                  [&](std::size_t a, std::size_t b) {
                      return features[a * feature_count + f] <
                             features[b * feature_count + f];
                  });
        double left_sum = 0.0, left_sq = 0.0;
        for (std::size_t k = 0; k + 1 < count; ++k) {
            const double y = targets[scratch[k]];
            left_sum += y;
            left_sq += y * y;
            const std::size_t left_n = k + 1;
            const std::size_t right_n = count - left_n;
            if (left_n < config_.minSamplesLeaf ||
                right_n < config_.minSamplesLeaf)
                continue;
            const double x_here = features[scratch[k] * feature_count + f];
            const double x_next =
                features[scratch[k + 1] * feature_count + f];
            if (x_next <= x_here) // cannot separate equal values
                continue;
            const double right_sum = sum - left_sum;
            const double right_sq = sum_sq - left_sq;
            const double left_sse =
                left_sq - left_sum * left_sum / static_cast<double>(left_n);
            const double right_sse =
                right_sq -
                right_sum * right_sum / static_cast<double>(right_n);
            const double gain = node_sse - left_sse - right_sse;
            if (gain > best_gain) {
                best_gain = gain;
                best_feature = f;
                // Split at the left value itself ("<=" goes left): the
                // midpoint of two adjacent doubles can round up to the
                // right value and empty a child.
                best_threshold = x_here;
            }
        }
    }
    if (best_feature == kLeaf)
        return node_index;

    // Partition the live range around the chosen threshold, then recurse.
    const auto mid_it = std::partition(
        indices.begin() + static_cast<long>(begin),
        indices.begin() + static_cast<long>(end), [&](std::size_t s) {
            return features[s * feature_count + best_feature] <=
                   best_threshold;
        });
    const auto mid =
        static_cast<std::size_t>(mid_it - indices.begin());
    requireInternal(mid > begin && mid < end,
                    "split produced an empty child");

    const std::size_t left_child = build(features, feature_count, targets,
                                         indices, begin, mid,
                                         node_depth + 1);
    const std::size_t right_child = build(features, feature_count, targets,
                                          indices, mid, end,
                                          node_depth + 1);
    nodes_[node_index].feature = best_feature;
    nodes_[node_index].threshold = best_threshold;
    nodes_[node_index].left = left_child;
    nodes_[node_index].right = right_child;
    return node_index;
}

double
DecisionTree::predict(std::span<const double> row) const
{
    requireConfig(trained(), "predict() before fit()");
    requireConfig(row.size() == featureCount_,
                  "feature row has the wrong width");
    std::size_t at = 0;
    while (nodes_[at].feature != kLeaf) {
        at = row[nodes_[at].feature] <= nodes_[at].threshold
                 ? nodes_[at].left
                 : nodes_[at].right;
    }
    return nodes_[at].value;
}

std::uint32_t
DecisionTree::appendFlattened(FlatTreeNodes &out) const
{
    requireConfig(trained(), "appendFlattened() before fit()");
    const std::size_t base = out.size();
    requireInternal(base + nodes_.size() <=
                        std::numeric_limits<std::uint32_t>::max(),
                    "flattened forest exceeds 32-bit node indices");
    out.feature.reserve(base + nodes_.size());
    for (const Node &n : nodes_) {
        const bool leaf = n.feature == kLeaf;
        out.feature.push_back(
            leaf ? FlatTreeNodes::kFlatLeaf
                 : static_cast<std::int32_t>(n.feature));
        out.threshold.push_back(n.threshold);
        out.value.push_back(n.value);
        out.left.push_back(static_cast<std::uint32_t>(base + n.left));
        out.right.push_back(static_cast<std::uint32_t>(base + n.right));
    }
    return static_cast<std::uint32_t>(base);
}

std::size_t
DecisionTree::depth() const
{
    std::size_t deepest = 0;
    for (const Node &n : nodes_)
        deepest = std::max(deepest, n.nodeDepth);
    return deepest;
}

} // namespace youtiao
