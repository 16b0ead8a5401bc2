#include "noise/random_forest.hpp"

#include <cstdint>
#include <utility>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/trace.hpp"

namespace youtiao {

RandomForest::RandomForest(RandomForestConfig config)
    : config_(config)
{
    requireConfig(config_.treeCount >= 1, "forest needs at least one tree");
}

void
RandomForest::fit(std::span<const double> x,
                  std::span<const double> targets, Prng &prng)
{
    requireConfig(!targets.empty(), "cannot fit on zero samples");
    const metrics::ScopedTimer timer("noise.forest_fit");
    metrics::count("noise.trees_fitted", config_.treeCount);
    const std::size_t n = targets.size();

    // Each tree bootstraps from its own child stream whose seed is drawn
    // serially here, so the fitted forest is bit-identical no matter how
    // many threads share the per-tree fits.
    std::vector<std::uint64_t> seeds(config_.treeCount);
    for (std::uint64_t &seed : seeds)
        seed = prng.next();

    // One sort of the rows by x serves every tree: each walks its bag's
    // draw counts in this order for its x-sorted samples.
    const std::vector<std::size_t> by_x = sortRowsByX(x);
    cancel::poll("noise.forest_fit");
    // Every bag draws uniformInt(n)'s stream with one reciprocal of n.
    const UniformIntDraw draw(n);
    std::vector<DecisionTree> trees(config_.treeCount,
                                    DecisionTree(config_.tree));
    parallelFor(0, config_.treeCount, [&](std::size_t t) {
        const trace::TraceSpan tree_span("noise.tree_fit", "noise");
        Prng local(seeds[t]);
        std::vector<std::size_t> bag(n);
        for (std::size_t &row : bag)
            row = draw(local);
        trees[t].fit(x, targets, bag, by_x);
    });
    trees_ = std::move(trees);
}

double
RandomForest::mean(double x) const
{
    double sum = 0.0;
    for (const DecisionTree &tree : trees_)
        sum += tree.predict(x);
    return sum / static_cast<double>(trees_.size());
}

double
RandomForest::predict(double x) const
{
    requireConfig(trained(), "predict() before fit()");
    return mean(x);
}

void
RandomForest::predictBatch(std::span<const double> x,
                           std::span<double> out) const
{
    requireConfig(trained(), "predictBatch() before fit()");
    requireConfig(x.size() == out.size(),
                  "feature values do not match the output size");
    const metrics::ScopedTimer timer("noise.forest_predict");
    metrics::count("noise.rows_predicted", out.size());
    parallelChunks(0, out.size(), 0, [&](std::size_t b, std::size_t e) {
        for (std::size_t r = b; r < e; ++r)
            out[r] = mean(x[r]);
    });
}

} // namespace youtiao
