#include <gtest/gtest.h>

#include <numeric>

#include "chip/topology_builder.hpp"
#include "common/error.hpp"
#include "multiplex/readout.hpp"
#include "noise/equivalent_distance.hpp"
#include "oracles/checks.hpp"

namespace youtiao {
namespace {

double
mean(const std::vector<double> &xs)
{
    return std::accumulate(xs.begin(), xs.end(), 0.0) /
           static_cast<double>(xs.size());
}

SymmetricMatrix
gridDistance(std::size_t rows, std::size_t cols)
{
    const ChipTopology chip = makeSquareGrid(rows, cols);
    return equivalentDistanceMatrix(qubitPhysicalDistanceMatrix(chip),
                                    qubitTopologicalDistanceMatrix(chip),
                                    0.6, 0.4);
}

TEST(Readout, FeedlinesCoverAllQubits)
{
    const ReadoutPlan plan = planReadout(gridDistance(6, 6), 8);
    std::vector<int> seen(36, 0);
    for (const auto &line : plan.feedlines) {
        EXPECT_LE(line.size(), 8u);
        for (std::size_t q : line)
            ++seen[q];
    }
    for (int s : seen)
        EXPECT_EQ(s, 1);
    EXPECT_EQ(plan.feedlineCount(), 5u); // ceil(36/8)
}

TEST(Readout, ResonatorsInBand)
{
    // The 7.0-8.5 GHz readout band, above the qubit band.
    const ReadoutPlan plan = planReadout(gridDistance(4, 4), 8);
    for (double f : plan.resonatorGHz) {
        EXPECT_GT(f, 7.0);
        EXPECT_LT(f, 8.5);
    }
}

TEST(Readout, InLineResonatorsDistinct)
{
    const ReadoutPlan plan = planReadout(gridDistance(4, 4), 8);
    for (const auto &line : plan.feedlines) {
        for (std::size_t i = 0; i < line.size(); ++i) {
            for (std::size_t j = i + 1; j < line.size(); ++j) {
                EXPECT_GT(std::abs(plan.resonatorGHz[line[i]] -
                                   plan.resonatorGHz[line[j]]),
                          0.05);
            }
        }
    }
}

TEST(Readout, PaperIsolationRequirementMet)
{
    // 8 channels across a 1.5 GHz band with 2 MHz resonators: the paper's
    // -30 dB inter-channel crosstalk requirement must hold comfortably.
    const ReadoutPlan plan = planReadout(gridDistance(6, 6), 8);
    EXPECT_TRUE(meetsIsolation(plan));
    EXPECT_LT(worstChannelCrosstalkDb(plan), -30.0);
}

TEST(Readout, IsolationFailsWithFatResonators)
{
    ReadoutPhysics fat;
    fat.resonatorLinewidthGHz = 0.2; // absurdly broad resonators
    const ReadoutPlan plan = planReadout(gridDistance(6, 6), 8);
    EXPECT_FALSE(meetsIsolation(plan, fat));
}

TEST(Readout, SingleShotFidelityNearPaper)
{
    // Paper section 2.2: single-shot readout fidelity ~99.0%.
    const ReadoutPlan plan = planReadout(gridDistance(6, 6), 8);
    const auto fidelities = singleShotFidelities(plan);
    EXPECT_NEAR(mean(fidelities), 0.99, 0.005);
    for (double f : fidelities)
        EXPECT_GT(f, 0.98);
}

TEST(Readout, CrowdedFeedlineHurtsFidelity)
{
    // Everything on one line against four qubits per line.
    const ReadoutPlan crowded = planReadout(gridDistance(6, 6), 36);
    const ReadoutPlan sparse = planReadout(gridDistance(6, 6), 4);
    ReadoutPhysics broad;
    broad.resonatorLinewidthGHz = 0.02;
    EXPECT_LT(mean(singleShotFidelities(crowded, broad)),
              mean(singleShotFidelities(sparse, broad)));
}

TEST(Readout, SingleQubitLinePerfectIsolation)
{
    const ReadoutPlan plan = planReadout(gridDistance(1, 2), 1);
    EXPECT_DOUBLE_EQ(worstChannelCrosstalkDb(plan), -300.0);
}

TEST(Readout, BadConfigThrows)
{
    EXPECT_THROW(planReadout(gridDistance(2, 2), 0), ConfigError);
}

} // namespace
} // namespace youtiao
