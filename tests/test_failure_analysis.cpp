#include <gtest/gtest.h>

#include "chip/topology_builder.hpp"
#include "common/error.hpp"
#include "core/failure_analysis.hpp"

namespace youtiao {
namespace {

struct Designed
{
    ChipTopology chip = makeSquareGrid(4, 4);
    YoutiaoConfig config;
    YoutiaoDesign design;

    Designed()
    {
        Prng prng(321);
        const ChipCharacterization data = characterizeChip(chip, prng);
        config.fit.forest.treeCount = 10;
        design = YoutiaoDesigner(config).design(chip, data);
    }
};

const Designed &
designed()
{
    static const Designed d;
    return d;
}

TEST(FailureAnalysis, XyLineFailureLosesItsGroup)
{
    const auto lost = qubitsLostIfLineFails(designed().chip,
                                            designed().design,
                                            WiringPlane::Xy, 0);
    EXPECT_EQ(lost.size(), designed().design.xyPlan.lines[0].size());
}

TEST(FailureAnalysis, ZLineFailureIncludesCouplerEndpoints)
{
    // Find a Z group containing at least one coupler; every endpoint of
    // that coupler must be in the blast radius.
    const auto &plan = designed().design.zPlan;
    for (std::size_t g = 0; g < plan.groups.size(); ++g) {
        for (std::size_t d : plan.groups[g].devices) {
            if (designed().chip.deviceKind(d) != DeviceKind::Coupler)
                continue;
            const CouplerInfo &c = designed().chip.coupler(
                d - designed().chip.qubitCount());
            const auto lost = qubitsLostIfLineFails(
                designed().chip, designed().design, WiringPlane::Z, g);
            EXPECT_NE(std::find(lost.begin(), lost.end(), c.qubitA),
                      lost.end());
            EXPECT_NE(std::find(lost.begin(), lost.end(), c.qubitB),
                      lost.end());
            return;
        }
    }
    FAIL() << "no coupler-bearing Z group found";
}

TEST(FailureAnalysis, ReadoutFailureLosesFeedline)
{
    const auto lost = qubitsLostIfLineFails(designed().chip,
                                            designed().design,
                                            WiringPlane::Readout, 0);
    EXPECT_EQ(lost.size(),
              designed().design.readoutPlan.lines[0].size());
}

TEST(FailureAnalysis, AggregateImpactConsistent)
{
    const FailureImpact impact =
        analyzeFailureImpact(designed().chip, designed().design);
    EXPECT_EQ(impact.totalLines,
              designed().design.xyPlan.lines.size() +
                  designed().design.zPlan.groups.size() +
                  designed().design.readoutPlan.lines.size());
    EXPECT_GT(impact.meanQubitsLost, 0.0);
    EXPECT_GE(static_cast<double>(impact.worstQubitsLost),
              impact.meanQubitsLost);
    EXPECT_LE(impact.worstQubitsLost, designed().chip.qubitCount());
}

TEST(FailureAnalysis, MultiplexingWidensBlastRadius)
{
    // Dedicated wiring loses at most 2 qubits per line (a coupler's
    // endpoints); multiplexed wiring must lose more on average.
    YoutiaoDesign dedicated = designed().design;
    dedicated.xyPlan = groupFdmLocalCluster(designed().chip, 1);
    dedicated.zPlan = dedicatedZPlan(designed().chip);
    const FailureImpact multiplexed =
        analyzeFailureImpact(designed().chip, designed().design);
    const FailureImpact single =
        analyzeFailureImpact(designed().chip, dedicated);
    EXPECT_GT(multiplexed.meanQubitsLost, single.meanQubitsLost);
}

TEST(FailureAnalysis, BadLineIdThrows)
{
    EXPECT_THROW(qubitsLostIfLineFails(designed().chip, designed().design,
                                       WiringPlane::Xy, 999),
                 ConfigError);
}

} // namespace
} // namespace youtiao
