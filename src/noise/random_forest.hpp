/**
 * @file
 * Bootstrap-aggregated regression forest over one feature.
 *
 * The paper fits crosstalk against the equivalent distance with a random
 * forest; this is that estimator, built on DecisionTree. With one feature
 * there is nothing to subset, so each tree fits a full-size bootstrap:
 * n draws with replacement from the n training samples.
 */

#ifndef YOUTIAO_NOISE_RANDOM_FOREST_HPP
#define YOUTIAO_NOISE_RANDOM_FOREST_HPP

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
};

/** Averaging ensemble of bootstrap-trained regression trees. */
class RandomForest
{
  public:
    explicit RandomForest(RandomForestConfig config = {});

    /** Fit treeCount trees on bootstrap resamples of (@p x, @p targets).
     *  Deterministic given @p prng. */
    void fit(std::span<const double> x, std::span<const double> targets,
             Prng &prng);

    /** Mean prediction across trees at @p x. */
    double predict(double x) const;

    /** predict() for every value of @p x into @p out (same size), over
     *  parallel row blocks. Each row runs predict()'s body into its own
     *  slot: bit-identical to predict() at any YOUTIAO_THREADS. */
    void predictBatch(std::span<const double> x,
                      std::span<double> out) const;

    bool trained() const { return !trees_.empty(); }
    std::size_t treeCount() const { return trees_.size(); }

  private:
    /** Trees summed in tree order, divided once. */
    double mean(double x) const;

    RandomForestConfig config_;
    std::vector<DecisionTree> trees_;
};

} // namespace youtiao

#endif // YOUTIAO_NOISE_RANDOM_FOREST_HPP
