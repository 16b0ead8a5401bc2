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

/** Readout feedlines of a rows x cols grid at @p capacity, grouped as
 *  the designer groups them. */
FdmPlan
gridFeedlines(std::size_t rows, std::size_t cols, std::size_t capacity)
{
    const ChipTopology chip = makeSquareGrid(rows, cols);
    return groupFdm(
        equivalentDistanceMatrix(qubitPhysicalDistanceMatrix(chip),
                                 qubitTopologicalDistanceMatrix(chip), 0.6,
                                 0.4),
        FdmGroupingConfig{capacity});
}

TEST(Readout, FeedlinesCoverAllQubits)
{
    const FdmPlan feedlines = gridFeedlines(6, 6, 8);
    std::vector<int> seen(36, 0);
    for (const auto &line : feedlines.lines) {
        EXPECT_LE(line.size(), 8u);
        for (std::size_t q : line)
            ++seen[q];
    }
    for (int s : seen)
        EXPECT_EQ(s, 1);
    EXPECT_EQ(feedlines.lineCount(), 5u); // ceil(36/8)
}

TEST(Readout, ResonatorsInBand)
{
    // The 7.0-8.5 GHz readout band, above the qubit band.
    const ReadoutPlan plan = planReadout(gridFeedlines(4, 4, 8));
    ASSERT_EQ(plan.resonatorGHz.size(), 16u);
    for (double f : plan.resonatorGHz) {
        EXPECT_GT(f, 7.0);
        EXPECT_LT(f, 8.5);
    }
}

TEST(Readout, InLineResonatorsDistinct)
{
    const FdmPlan feedlines = gridFeedlines(4, 4, 8);
    const ReadoutPlan plan = planReadout(feedlines);
    for (const auto &line : feedlines.lines) {
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
    const FdmPlan feedlines = gridFeedlines(6, 6, 8);
    const ReadoutPlan plan = planReadout(feedlines);
    EXPECT_TRUE(meetsIsolation(feedlines, plan));
    EXPECT_LT(worstChannelCrosstalkDb(feedlines, plan), -30.0);
}

TEST(Readout, IsolationFailsWithFatResonators)
{
    ReadoutPhysics fat;
    fat.resonatorLinewidthGHz = 0.2; // absurdly broad resonators
    const FdmPlan feedlines = gridFeedlines(6, 6, 8);
    EXPECT_FALSE(meetsIsolation(feedlines, planReadout(feedlines), fat));
}

TEST(Readout, SingleShotFidelityNearPaper)
{
    // Paper section 2.2: single-shot readout fidelity ~99.0%.
    const FdmPlan feedlines = gridFeedlines(6, 6, 8);
    const auto fidelities =
        singleShotFidelities(feedlines, planReadout(feedlines));
    EXPECT_NEAR(mean(fidelities), 0.99, 0.005);
    for (double f : fidelities)
        EXPECT_GT(f, 0.98);
}

TEST(Readout, CrowdedFeedlineHurtsFidelity)
{
    // Everything on one line against four qubits per line.
    const FdmPlan crowded = gridFeedlines(6, 6, 36);
    const FdmPlan sparse = gridFeedlines(6, 6, 4);
    ReadoutPhysics broad;
    broad.resonatorLinewidthGHz = 0.02;
    EXPECT_LT(
        mean(singleShotFidelities(crowded, planReadout(crowded), broad)),
        mean(singleShotFidelities(sparse, planReadout(sparse), broad)));
}

TEST(Readout, SingleQubitLinePerfectIsolation)
{
    const FdmPlan feedlines = gridFeedlines(1, 2, 1);
    EXPECT_DOUBLE_EQ(
        worstChannelCrosstalkDb(feedlines, planReadout(feedlines)), -300.0);
}

TEST(Readout, BadConfigThrows)
{
    // A zero feedline capacity is rejected by the grouping.
    EXPECT_THROW(gridFeedlines(2, 2, 0), ConfigError);
}

} // namespace
} // namespace youtiao
