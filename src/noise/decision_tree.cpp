#include "noise/decision_tree.hpp"

#include <numeric>
#include <utility>

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
DecisionTree::fit(std::span<const double> x,
                  std::span<const double> targets,
                  const std::vector<std::size_t> &sample_indices)
{
    requireConfig(x.size() == targets.size(),
                  "feature and target counts differ");
    requireConfig(!targets.empty(), "cannot fit on zero samples");

    std::vector<std::size_t> indices(sample_indices);
    if (indices.empty()) {
        indices.resize(targets.size());
        std::iota(indices.begin(), indices.end(), 0);
    }
    requireConfig(std::ranges::max(indices) < targets.size(),
                  "bagging index out of range");
    // Build into a fresh tree, so a throw leaves this one as it was.
    DecisionTree tree(config_);
    tree.build(x, targets, indices, 0, indices.size(), 0);
    requireInternal(tree.leaves_.size() == tree.thresholds_.size() + 1,
                    "interval table: leaves must be splits + 1");
    for (std::size_t s = 1; s < tree.thresholds_.size(); ++s) {
        if (!(tree.thresholds_[s - 1] < tree.thresholds_[s]))
            throw InternalError("interval table: splits must increase");
    }
    *this = std::move(tree);
}

void
DecisionTree::build(std::span<const double> x,
                    std::span<const double> targets,
                    std::vector<std::size_t> &indices, std::size_t begin,
                    std::size_t end, std::size_t node_depth)
{
    const auto first = indices.begin() + static_cast<std::ptrdiff_t>(begin);
    const auto last = indices.begin() + static_cast<std::ptrdiff_t>(end);
    const std::size_t count = end - begin;
    double sum = 0.0, sum_sq = 0.0;
    for (auto it = first; it != last; ++it) {
        const double y = targets[*it];
        sum += y;
        sum_sq += y * y;
    }
    const double node_mean = sum / static_cast<double>(count);
    const double node_sse = sum_sq - sum * node_mean;

    // Exhaustive best split: sort a copy of the range by x and scan the
    // boundaries for the least child SSE. The live range keeps its order
    // for the partition below, which fixes the children's summation order.
    double best_gain = 0.0, best_threshold = 0.0;
    if (node_depth < config_.maxDepth && count >= config_.minSamplesSplit &&
        node_sse > 1e-18) {
        std::vector<std::size_t> sorted(first, last);
        std::sort(sorted.begin(), sorted.end(),
                  [&](std::size_t a, std::size_t b) { return x[a] < x[b]; });
        double left_sum = 0.0, left_sq = 0.0;
        for (std::size_t k = 0; k + 1 < count; ++k) {
            const double y = targets[sorted[k]];
            left_sum += y;
            left_sq += y * y;
            const std::size_t left_n = k + 1;
            const std::size_t right_n = count - left_n;
            const double x_here = x[sorted[k]];
            if (left_n < config_.minSamplesLeaf ||
                right_n < config_.minSamplesLeaf ||
                x[sorted[k + 1]] <= x_here) // equal values stay together
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
                // Split at the left value itself ("<=" goes left): the
                // midpoint of two adjacent doubles can round up to the
                // right value and empty a child.
                best_threshold = x_here;
            }
        }
    }
    if (best_gain <= 0.0) {
        leaves_.push_back(node_mean);
        depth_ = std::max(depth_, node_depth);
        return;
    }

    // Partition the live range around the threshold and emit in order:
    // left subtree, threshold, right subtree.
    const auto mid_it = std::partition(first, last, [&](std::size_t s) {
        return x[s] <= best_threshold;
    });
    const auto mid = static_cast<std::size_t>(mid_it - indices.begin());
    if (mid == begin || mid == end)
        throw InternalError("split produced an empty child");
    build(x, targets, indices, begin, mid, node_depth + 1);
    thresholds_.push_back(best_threshold);
    build(x, targets, indices, mid, end, node_depth + 1);
}

} // namespace youtiao
