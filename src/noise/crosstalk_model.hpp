/**
 * @file
 * The crosstalk characterization model (paper Section 4.1).
 *
 * Pipeline: for each candidate weight pair (w_phy, w_top = 1 - w_phy) the
 * equivalent distance d_equiv = w_phy * d_phy + w_top * d_top is formed for
 * every measured qubit pair; a random forest is scored with 5-fold
 * cross-validation; the weights with minimum CV error win and a final
 * forest is trained on all samples. Crosstalk magnitudes span several
 * decades, so the forest is fit in log space (model selection uses
 * log-space MSE); predictions are returned in linear units.
 */

#ifndef YOUTIAO_NOISE_CROSSTALK_MODEL_HPP
#define YOUTIAO_NOISE_CROSSTALK_MODEL_HPP

#include <vector>

#include "chip/topology.hpp"
#include "common/matrix.hpp"
#include "common/prng.hpp"
#include "noise/crosstalk_data.hpp"
#include "noise/random_forest.hpp"

namespace youtiao {

/**
 * Fitting configuration. The weight grid (w_phy in 0, 0.1, ..., 1), the
 * 5 folds and the fit seed are fixed.
 */
struct CrosstalkFitConfig
{
    RandomForestConfig forest;
};

/** Fitted crosstalk predictor. */
class CrosstalkModel
{
  public:
    /** An untrained model; predict() throws until assigned from fit(). */
    CrosstalkModel() = default;

    /** Fit from calibration samples. Throws ConfigError on too few. */
    static CrosstalkModel fit(const std::vector<CrosstalkSample> &samples,
                              const CrosstalkFitConfig &config = {});

    /** Predicted crosstalk magnitude for a pair at the given distances. */
    double predict(double d_phy, double d_top) const;

    /** Predicted crosstalk for every qubit pair of @p chip. */
    SymmetricMatrix predictQubitMatrix(const ChipTopology &chip) const;

    /** Equivalent distance under the fitted weights. */
    double equivalentDistance(double d_phy, double d_top) const;

    /** Winning physical-distance weight. */
    double wPhy() const { return wPhy_; }
    /** Winning topological-distance weight. */
    double wTop() const { return wTop_; }
    /** Log-space CV MSE of the winning weights. */
    double cvError() const { return cvError_; }

  private:
    double wPhy_ = 0.5;
    double wTop_ = 0.5;
    double cvError_ = 0.0;
    RandomForest forest_;
};

} // namespace youtiao

#endif // YOUTIAO_NOISE_CROSSTALK_MODEL_HPP
