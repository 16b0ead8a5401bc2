#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "chip/topology_builder.hpp"
#include "noise/crosstalk_data.hpp"

namespace youtiao {
namespace {

TEST(CrosstalkData, GroundTruthDecaysWithDistance)
{
    const CrosstalkGroundTruth truth = xyGroundTruth();
    const double near = groundTruthValue(truth, 1.0, 1.0);
    const double far = groundTruthValue(truth, 5.0, 10.0);
    EXPECT_GT(near, far);
    EXPECT_GE(far, truth.floor);
}

TEST(CrosstalkData, GroundTruthFloorApplies)
{
    const CrosstalkGroundTruth truth = xyGroundTruth();
    EXPECT_DOUBLE_EQ(groundTruthValue(truth, 1e3, 1e3), truth.floor);
}

TEST(CrosstalkData, GroundTruthAtZeroIsAmplitude)
{
    const CrosstalkGroundTruth truth = zzGroundTruth();
    EXPECT_DOUBLE_EQ(groundTruthValue(truth, 0.0, 0.0), truth.amplitude);
}

TEST(CrosstalkData, CharacterizationCoversAllPairs)
{
    const ChipTopology chip = makeSquareGrid(3, 3);
    Prng prng(1);
    const ChipCharacterization data = characterizeChip(chip, prng);
    const std::size_t pairs = 9 * 8 / 2;
    EXPECT_EQ(data.xySamples.size(), pairs);
    EXPECT_EQ(data.zzSamples.size(), pairs);
    EXPECT_EQ(data.xyCrosstalk.size(), 9u);
    EXPECT_EQ(data.zzCrosstalkMHz.size(), 9u);
}

TEST(CrosstalkData, MatricesMatchSamples)
{
    const ChipTopology chip = makeSquareGrid(2, 3);
    Prng prng(2);
    const ChipCharacterization data = characterizeChip(chip, prng);
    for (const CrosstalkSample &s : data.xySamples)
        EXPECT_DOUBLE_EQ(data.xyCrosstalk(s.qubitA, s.qubitB), s.value);
    for (const CrosstalkSample &s : data.zzSamples)
        EXPECT_DOUBLE_EQ(data.zzCrosstalkMHz(s.qubitA, s.qubitB), s.value);
}

TEST(CrosstalkData, AllValuesPositive)
{
    const ChipTopology chip = makeSquareGrid(4, 4);
    Prng prng(3);
    const ChipCharacterization data = characterizeChip(chip, prng);
    for (const CrosstalkSample &s : data.xySamples)
        EXPECT_GT(s.value, 0.0);
    for (const CrosstalkSample &s : data.zzSamples)
        EXPECT_GT(s.value, 0.0);
}

TEST(CrosstalkData, DeterministicGivenSeed)
{
    const ChipTopology chip = makeSquareGrid(3, 3);
    Prng a(7), b(7);
    const auto da = characterizeChip(chip, a);
    const auto db = characterizeChip(chip, b);
    for (std::size_t i = 0; i < da.xySamples.size(); ++i)
        EXPECT_DOUBLE_EQ(da.xySamples[i].value, db.xySamples[i].value);
}

TEST(CrosstalkData, AdjacentNoisierThanDistantOnAverage)
{
    const ChipTopology chip = makeSquareGrid(6, 6);
    Prng prng(11);
    const ChipCharacterization data = characterizeChip(chip, prng);
    std::vector<double> adjacent, distant;
    for (const CrosstalkSample &s : data.xySamples) {
        if (s.topologicalDistance <= 1.0)
            adjacent.push_back(s.value);
        else if (s.topologicalDistance >= 8.0)
            distant.push_back(s.value);
    }
    ASSERT_FALSE(adjacent.empty());
    ASSERT_FALSE(distant.empty());
    auto mean = [](const std::vector<double> &xs) {
        return std::accumulate(xs.begin(), xs.end(), 0.0) /
               static_cast<double>(xs.size());
    };
    EXPECT_GT(mean(adjacent), 5.0 * mean(distant));
}

TEST(CrosstalkData, SamplesCarryDistanceFeatures)
{
    const ChipTopology chip = makeSquareGrid(2, 2);
    Prng prng(13);
    const ChipCharacterization data = characterizeChip(chip, prng);
    for (const CrosstalkSample &s : data.xySamples) {
        EXPECT_GT(s.physicalDistance, 0.0);
        EXPECT_GT(s.topologicalDistance, 0.0);
        EXPECT_NE(s.qubitA, s.qubitB);
    }
}

TEST(CrosstalkData, NoiseSpreadsMeasurements)
{
    // Same pair distances, different noise draws -> different values.
    const ChipTopology chip = makeSquareGrid(3, 3);
    Prng a(1), b(2);
    const auto da = characterizeChip(chip, a);
    const auto db = characterizeChip(chip, b);
    bool any_diff = false;
    for (std::size_t i = 0; i < da.xySamples.size(); ++i)
        any_diff |= da.xySamples[i].value != db.xySamples[i].value;
    EXPECT_TRUE(any_diff);
}

} // namespace
} // namespace youtiao
