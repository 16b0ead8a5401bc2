#include "noise/crosstalk_model.hpp"

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/error.hpp"
#include "common/statistics.hpp"
#include "noise/equivalent_distance.hpp"

namespace youtiao {

namespace {

/** Candidate w_phy values (w_top = 1 - w_phy). */
constexpr std::array<double, 11> kWeightGrid = {
    0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0};
/** Cross-validation folds (the paper uses 5). */
constexpr std::size_t kFolds = 5;
/** Seed of the fold shuffle and the forests' bootstrap streams. */
constexpr std::uint64_t kFitSeed = 0xC0FFEE;

/** One-feature design matrix: d_equiv per sample under given weights. */
std::vector<double>
equivalentFeatures(const std::vector<CrosstalkSample> &samples, double w_phy,
                   double w_top)
{
    std::vector<double> features;
    features.reserve(samples.size());
    for (const CrosstalkSample &s : samples)
        features.push_back(w_phy * s.physicalDistance +
                           w_top * s.topologicalDistance);
    return features;
}

std::vector<double>
logTargets(const std::vector<CrosstalkSample> &samples)
{
    std::vector<double> targets;
    targets.reserve(samples.size());
    for (const CrosstalkSample &s : samples) {
        requireConfig(s.value > 0.0,
                      "crosstalk samples must be positive for log fitting");
        targets.push_back(std::log(s.value));
    }
    return targets;
}

} // namespace

CrosstalkModel
CrosstalkModel::fit(const std::vector<CrosstalkSample> &samples,
                    const CrosstalkFitConfig &config)
{
    requireConfig(samples.size() >= 2 * kFolds,
                  "too few crosstalk samples for cross-validation");

    const std::vector<double> targets = logTargets(samples);
    Prng prng(kFitSeed);

    // Shuffle once; the same fold split scores every weight candidate so
    // the comparison is apples to apples.
    std::vector<std::size_t> perm(samples.size());
    for (std::size_t i = 0; i < perm.size(); ++i)
        perm[i] = i;
    prng.shuffle(perm);
    const auto folds = kFoldIndices(samples.size(), kFolds);

    double best_error = std::numeric_limits<double>::infinity();
    double best_w_phy = kWeightGrid.front();
    for (double w_phy : kWeightGrid) {
        const double w_top = 1.0 - w_phy;
        const std::vector<double> features =
            equivalentFeatures(samples, w_phy, w_top);

        double error_sum = 0.0;
        std::size_t error_count = 0;
        for (const auto &fold : folds) {
            std::vector<bool> in_test(samples.size(), false);
            for (std::size_t k : fold)
                in_test[perm[k]] = true;

            std::vector<double> train_x, train_y;
            std::vector<double> test_x, test_y;
            for (std::size_t i = 0; i < samples.size(); ++i) {
                if (in_test[i]) {
                    test_x.push_back(features[i]);
                    test_y.push_back(targets[i]);
                } else {
                    train_x.push_back(features[i]);
                    train_y.push_back(targets[i]);
                }
            }
            Prng fold_prng = prng.split();
            RandomForest forest(config.forest);
            forest.fit(train_x, train_y, fold_prng);
            std::vector<double> pred(test_x.size());
            forest.predictBatch(test_x, pred);
            for (std::size_t i = 0; i < test_x.size(); ++i) {
                const double err = pred[i] - test_y[i];
                error_sum += err * err;
                ++error_count;
            }
        }
        const double cv_mse =
            error_sum / static_cast<double>(error_count);
        if (cv_mse < best_error) {
            best_error = cv_mse;
            best_w_phy = w_phy;
        }
    }

    CrosstalkModel model;
    model.wPhy_ = best_w_phy;
    model.wTop_ = 1.0 - best_w_phy;
    model.cvError_ = best_error;
    const std::vector<double> features =
        equivalentFeatures(samples, model.wPhy_, model.wTop_);
    Prng final_prng = prng.split();
    model.forest_ = RandomForest(config.forest);
    model.forest_.fit(features, targets, final_prng);
    return model;
}

double
CrosstalkModel::predict(double d_phy, double d_top) const
{
    const double d_equiv = equivalentDistance(d_phy, d_top);
    return std::exp(forest_.predict(d_equiv));
}

SymmetricMatrix
CrosstalkModel::predictQubitMatrix(const ChipTopology &chip) const
{
    const SymmetricMatrix d_phy = qubitPhysicalDistanceMatrix(chip);
    const SymmetricMatrix d_top = qubitTopologicalDistanceMatrix(chip);
    SymmetricMatrix out(chip.qubitCount());

    // One parallel batched forest pass over all n*(n-1)/2 pair features;
    // exp() applied per slot afterwards matches per-pair predict() bit
    // for bit.
    std::vector<double> d_equiv;
    d_equiv.reserve(out.size() * (out.size() - 1) / 2);
    for (std::size_t i = 0; i < out.size(); ++i) {
        for (std::size_t j = i + 1; j < out.size(); ++j)
            d_equiv.push_back(equivalentDistance(d_phy(i, j), d_top(i, j)));
    }
    std::vector<double> log_pred(d_equiv.size());
    forest_.predictBatch(d_equiv, log_pred);
    std::size_t k = 0;
    for (std::size_t i = 0; i < out.size(); ++i) {
        for (std::size_t j = i + 1; j < out.size(); ++j)
            out(i, j) = std::exp(log_pred[k++]);
    }
    return out;
}

double
CrosstalkModel::equivalentDistance(double d_phy, double d_top) const
{
    return wPhy_ * d_phy + wTop_ * d_top;
}

} // namespace youtiao
