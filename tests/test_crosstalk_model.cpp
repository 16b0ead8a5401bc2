#include <gtest/gtest.h>

#include <cmath>

#include "chip/topology_builder.hpp"
#include "common/error.hpp"
#include "noise/crosstalk_model.hpp"

namespace youtiao {
namespace {

/** Characterize a chip and fit; shared across tests. */
struct Fitted
{
    ChipTopology chip = makeSquareGrid(6, 6);
    ChipCharacterization data;
    CrosstalkModel model;

    Fitted()
    {
        Prng prng(42);
        data = characterizeChip(chip, prng);
        CrosstalkFitConfig cfg;
        cfg.forest.treeCount = 20; // keep tests fast
        model = CrosstalkModel::fit(data.xySamples, cfg);
    }
};

const Fitted &
fitted()
{
    static const Fitted instance;
    return instance;
}

TEST(CrosstalkModel, WeightsWellFormed)
{
    // On grid chips d_phy and d_top are nearly collinear, so the exact
    // weights are weakly identifiable; what matters (and is tested below)
    // is prediction quality. Here: the chosen weights are a valid convex
    // combination from the grid.
    const double w = fitted().model.wPhy();
    EXPECT_GE(w, 0.0);
    EXPECT_LE(w, 1.0);
    EXPECT_NEAR(fitted().model.wPhy() + fitted().model.wTop(), 1.0, 1e-12);
}

TEST(CrosstalkModel, PredictionsTrackGroundTruth)
{
    const CrosstalkGroundTruth truth = xyGroundTruth();
    double worst_ratio = 1.0;
    for (double d_phy : {1.6, 3.2, 4.8}) {
        const double d_top = d_phy / 1.6;
        const double predicted = fitted().model.predict(d_phy, d_top);
        const double actual = groundTruthValue(truth, d_phy, d_top);
        const double ratio = predicted > actual ? predicted / actual
                                                : actual / predicted;
        worst_ratio = std::max(worst_ratio, ratio);
    }
    EXPECT_LT(worst_ratio, 2.0)
        << "fit should be within 2x of truth in the calibrated range";
}

TEST(CrosstalkModel, PredictionsDecayWithDistance)
{
    const double near = fitted().model.predict(1.6, 1.0);
    const double far = fitted().model.predict(8.0, 12.0);
    EXPECT_GT(near, far);
}

TEST(CrosstalkModel, MatrixPredictionCoversChip)
{
    const SymmetricMatrix m =
        fitted().model.predictQubitMatrix(fitted().chip);
    EXPECT_EQ(m.size(), fitted().chip.qubitCount());
    for (std::size_t i = 0; i < m.size(); ++i)
        for (std::size_t j = i + 1; j < m.size(); ++j)
            EXPECT_GT(m(i, j), 0.0);
}

TEST(CrosstalkModel, MatrixAdjacentExceedsDistant)
{
    const SymmetricMatrix m =
        fitted().model.predictQubitMatrix(fitted().chip);
    // Qubit 0 and 1 are adjacent; 0 and 35 are opposite corners.
    EXPECT_GT(m(0, 1), m(0, 35));
}

TEST(CrosstalkModel, CvErrorReported)
{
    EXPECT_GT(fitted().model.cvError(), 0.0);
    EXPECT_LT(fitted().model.cvError(), 1.0)
        << "log-space CV MSE should be small on clean synthetic data";
}

TEST(CrosstalkModel, EquivalentDistanceUsesFittedWeights)
{
    const CrosstalkModel &m = fitted().model;
    EXPECT_DOUBLE_EQ(m.equivalentDistance(2.0, 3.0),
                     m.wPhy() * 2.0 + m.wTop() * 3.0);
}

TEST(CrosstalkModel, TooFewSamplesThrows)
{
    std::vector<CrosstalkSample> samples(4);
    for (auto &s : samples)
        s.value = 1e-3;
    EXPECT_THROW(CrosstalkModel::fit(samples), ConfigError);
}

TEST(CrosstalkModel, NonPositiveSampleThrows)
{
    std::vector<CrosstalkSample> samples(20);
    for (auto &s : samples)
        s.value = 1e-3;
    samples[7].value = 0.0;
    EXPECT_THROW(CrosstalkModel::fit(samples), ConfigError);
}

TEST(CrosstalkModel, DeterministicGivenSeed)
{
    CrosstalkFitConfig cfg;
    cfg.forest.treeCount = 10;
    const CrosstalkModel a = CrosstalkModel::fit(fitted().data.xySamples,
                                                 cfg);
    const CrosstalkModel b = CrosstalkModel::fit(fitted().data.xySamples,
                                                 cfg);
    EXPECT_DOUBLE_EQ(a.wPhy(), b.wPhy());
    EXPECT_DOUBLE_EQ(a.predict(2.0, 2.0), b.predict(2.0, 2.0));
}

TEST(CrosstalkModel, ZzSamplesAlsoFit)
{
    CrosstalkFitConfig cfg;
    cfg.forest.treeCount = 10;
    const CrosstalkModel zz = CrosstalkModel::fit(fitted().data.zzSamples,
                                                  cfg);
    // ZZ magnitudes are MHz-scale, much larger than XY probabilities.
    EXPECT_GT(zz.predict(1.6, 1.0), fitted().model.predict(1.6, 1.0));
}

} // namespace
} // namespace youtiao
