#include "noise/random_forest.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/trace.hpp"

namespace youtiao {

RandomForest::RandomForest(RandomForestConfig config)
    : config_(config)
{
    requireConfig(config_.treeCount >= 1, "forest needs at least one tree");
    requireConfig(config_.bootstrapFraction > 0.0 &&
                      config_.bootstrapFraction <= 1.0,
                  "bootstrapFraction must be in (0, 1]");
}

void
RandomForest::fit(std::span<const double> features,
                  std::size_t feature_count,
                  std::span<const double> targets, Prng &prng)
{
    requireConfig(!targets.empty(), "cannot fit on zero samples");
    const metrics::ScopedTimer timer("noise.forest_fit");
    metrics::count("noise.trees_fitted", config_.treeCount);
    const std::size_t n = targets.size();
    const auto draw_count = static_cast<std::size_t>(
        std::ceil(config_.bootstrapFraction * static_cast<double>(n)));

    // Each tree bootstraps from its own child stream whose seed is drawn
    // serially here, so the fitted forest is bit-identical no matter how
    // many threads share the per-tree fits.
    std::vector<std::uint64_t> seeds(config_.treeCount);
    for (std::uint64_t &seed : seeds)
        seed = prng.next();

    trees_.clear();
    trees_.reserve(config_.treeCount);
    for (std::size_t t = 0; t < config_.treeCount; ++t)
        trees_.emplace_back(config_.tree);
    parallelFor(0, config_.treeCount, [&](std::size_t t) {
        const trace::TraceSpan tree_span("noise.tree_fit", "noise");
        Prng local(seeds[t]);
        std::vector<std::size_t> bag(draw_count);
        for (std::size_t k = 0; k < draw_count; ++k)
            bag[k] = local.uniformInt(n);
        trees_[t].fit(features, feature_count, targets, bag);
    });

    // Flatten the fitted trees into one SoA pool; inference walks this
    // instead of chasing per-tree Node vectors.
    featureCount_ = feature_count;
    flat_ = FlatTreeNodes{};
    roots_.clear();
    roots_.reserve(trees_.size());
    for (const DecisionTree &tree : trees_)
        roots_.push_back(tree.appendFlattened(flat_));

    splitOffsets_.clear();
    leafOffsets_.clear();
    splitPoints_.clear();
    leafValues_.clear();
    if (featureCount_ == 1)
        buildSingleFeatureTables();
}

void
RandomForest::buildSingleFeatureTables()
{
    splitOffsets_.assign(1, 0);
    leafOffsets_.assign(1, 0);
    for (const std::uint32_t root : roots_) {
        // Iterative in-order walk: with one feature every split key is
        // on the same axis, so thresholds come out strictly increasing
        // and leaves left to right -- the tree IS an interval table.
        std::vector<std::pair<std::uint32_t, bool>> stack;
        stack.emplace_back(root, false);
        while (!stack.empty()) {
            const auto [at, emit] = stack.back();
            stack.pop_back();
            if (flat_.feature[at] == FlatTreeNodes::kFlatLeaf) {
                leafValues_.push_back(flat_.value[at]);
                continue;
            }
            if (emit) {
                splitPoints_.push_back(flat_.threshold[at]);
                continue;
            }
            stack.emplace_back(flat_.right[at], false);
            stack.emplace_back(at, true);
            stack.emplace_back(flat_.left[at], false);
        }
        const std::size_t split_begin = splitOffsets_.back();
        const std::size_t leaf_begin = leafOffsets_.back();
        splitOffsets_.push_back(splitPoints_.size());
        leafOffsets_.push_back(leafValues_.size());
        requireInternal(leafValues_.size() - leaf_begin ==
                            splitPoints_.size() - split_begin + 1,
                        "interval table: leaves must be splits + 1");
        for (std::size_t s = split_begin + 1; s < splitPoints_.size();
             ++s)
            requireInternal(splitPoints_[s - 1] < splitPoints_[s],
                            "interval table: splits must increase");
    }
}

void
RandomForest::predictMergeRange(std::span<const double> features,
                                std::span<double> out, std::size_t begin,
                                std::size_t end) const
{
    const std::size_t n = end - begin;
    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  return features[begin + a] < features[begin + b];
              });
    std::vector<double> sums(n, 0.0);
    for (std::size_t t = 0; t < roots_.size(); ++t) {
        const double *splits = splitPoints_.data() + splitOffsets_[t];
        const std::size_t split_count =
            splitOffsets_[t + 1] - splitOffsets_[t];
        const double *leaves = leafValues_.data() + leafOffsets_[t];
        // Two-pointer sweep: rows ascend, so the split cursor only
        // moves forward; `x <= splits[j]` lands in leaf j exactly like
        // the walk's `<=`-goes-left rule.
        std::size_t j = 0;
        for (const std::uint32_t i : order) {
            const double x = features[begin + i];
            while (j < split_count && splits[j] < x)
                ++j;
            sums[i] += leaves[j];
        }
    }
    const auto tree_count = static_cast<double>(roots_.size());
    for (std::size_t i = 0; i < n; ++i)
        out[begin + i] = sums[i] / tree_count;
}

double
RandomForest::predict(std::span<const double> row) const
{
    requireConfig(trained(), "predict() before fit()");
    requireConfig(row.size() == featureCount_,
                  "feature row has the wrong width");
    double sum = 0.0;
    for (const std::uint32_t root : roots_)
        sum += flat_.predictRow(root, row);
    return sum / static_cast<double>(roots_.size());
}

void
RandomForest::predictBatch(std::span<const double> features,
                           std::size_t feature_count,
                           std::span<double> out) const
{
    requireConfig(trained(), "predictBatch() before fit()");
    requireConfig(feature_count == featureCount_,
                  "feature rows have the wrong width");
    requireConfig(features.size() == out.size() * feature_count,
                  "feature matrix does not match the output size");
    const metrics::ScopedTimer timer("noise.forest_predict");
    metrics::count("noise.rows_predicted", out.size());
    // Rows are independent and each writes only its own slot, so chunking
    // is deterministic; within a row trees accumulate in tree order and
    // divide exactly as predict() does, matching it bit for bit.
    parallelChunks(0, out.size(), 0, [&](std::size_t b, std::size_t e) {
        // Single-feature forests (the crosstalk model's shape) take the
        // interval-table sweep: sort the block by x and advance each
        // tree's split cursor once, replacing per-row chains of
        // dependent random loads with sequential scans. NaN rows would
        // foil the sort (and belong in every tree's rightmost leaf), and
        // tiny blocks do not repay the sort, so those take the per-row
        // walk -- which computes the identical values anyway.
        if (featureCount_ == 1 && e - b >= 8 &&
            std::none_of(features.begin() +
                             static_cast<std::ptrdiff_t>(b),
                         features.begin() +
                             static_cast<std::ptrdiff_t>(e),
                         [](double x) { return std::isnan(x); })) {
            predictMergeRange(features, out, b, e);
            return;
        }
        for (std::size_t r = b; r < e; ++r)
            out[r] = predict(
                features.subspan(r * feature_count, feature_count));
    });
}

} // namespace youtiao
