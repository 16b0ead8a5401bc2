/**
 * @file
 * Bootstrap-aggregated regression forest.
 *
 * The paper fits the crosstalk-vs-equivalent-distance relationship with a
 * random forest; this is that estimator, built on DecisionTree. With the
 * low-dimensional feature spaces used here (1-2 features), randomization
 * comes from bootstrap resampling rather than feature subsetting.
 */

#ifndef YOUTIAO_NOISE_RANDOM_FOREST_HPP
#define YOUTIAO_NOISE_RANDOM_FOREST_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "common/prng.hpp"
#include "noise/decision_tree.hpp"

namespace youtiao {

/** Hyper-parameters of the forest. */
struct RandomForestConfig
{
    std::size_t treeCount = 40;
    DecisionTreeConfig tree;
    /** Fraction of samples drawn (with replacement) per tree. */
    double bootstrapFraction = 1.0;
};

/** Averaging ensemble of bootstrap-trained regression trees. */
class RandomForest
{
  public:
    explicit RandomForest(RandomForestConfig config = {});

    /**
     * Fit @p tree_count trees on bootstrap resamples of the training set.
     * Deterministic given @p prng.
     */
    void fit(std::span<const double> features, std::size_t feature_count,
             std::span<const double> targets, Prng &prng);

    /** Mean prediction across trees for one feature row. */
    double predict(std::span<const double> row) const;

    /**
     * Mean prediction for every row of @p features (row-major,
     * out.size() x feature_count), parallelized over row blocks. A
     * block of at least 8 NaN-free rows of a single-feature forest takes
     * the interval-table sweep (predictMergeRange); every other block
     * takes predict()'s per-row walk. Either way each row's trees are
     * summed in tree order into a per-row slot, so the result is
     * bit-identical to calling predict() per row at any YOUTIAO_THREADS
     * setting.
     */
    void predictBatch(std::span<const double> features,
                      std::size_t feature_count,
                      std::span<double> out) const;

    bool trained() const { return !trees_.empty(); }
    std::size_t treeCount() const { return trees_.size(); }

  private:
    /** Build the per-tree interval tables backing the single-feature
     *  batch path; called by fit() when featureCount_ == 1. */
    void buildSingleFeatureTables();

    /** Merge-based batch prediction over rows [begin, end): sorts the
     *  block by feature value and sweeps each tree's interval table
     *  once. Requires the tables and NaN-free inputs; bit-identical to
     *  the per-row walk. */
    void predictMergeRange(std::span<const double> features,
                           std::span<double> out, std::size_t begin,
                           std::size_t end) const;

    RandomForestConfig config_;
    std::vector<DecisionTree> trees_;
    /** SoA node pool built at the end of fit(); predict walks this. */
    FlatTreeNodes flat_;
    std::vector<std::uint32_t> roots_;
    std::size_t featureCount_ = 0;
    /**
     * Single-feature interval tables (CSR over trees), built by fit()
     * when featureCount_ == 1: a one-feature tree partitions the line
     * at its in-order internal thresholds, so tree t maps x to
     * leafValues_[leafOffsets_[t] + #(splits of t < x)]. The batch
     * kernel sweeps these tables instead of walking node chains.
     */
    std::vector<std::size_t> splitOffsets_, leafOffsets_;
    std::vector<double> splitPoints_, leafValues_;
};

} // namespace youtiao

#endif // YOUTIAO_NOISE_RANDOM_FOREST_HPP
