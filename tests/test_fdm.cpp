#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "chip/topology_builder.hpp"
#include "common/error.hpp"
#include "multiplex/fdm.hpp"
#include "noise/equivalent_distance.hpp"

namespace youtiao {
namespace {

SymmetricMatrix
gridDistance(std::size_t rows, std::size_t cols)
{
    const ChipTopology chip = makeSquareGrid(rows, cols);
    return equivalentDistanceMatrix(qubitPhysicalDistanceMatrix(chip),
                                    qubitTopologicalDistanceMatrix(chip),
                                    0.6, 0.4);
}

void
expectValidPlan(const FdmPlan &plan, std::size_t qubits,
                std::size_t capacity)
{
    std::vector<int> seen(qubits, 0);
    for (std::size_t line = 0; line < plan.lines.size(); ++line) {
        EXPECT_LE(plan.lines[line].size(), capacity);
        EXPECT_FALSE(plan.lines[line].empty());
        for (std::size_t q : plan.lines[line]) {
            ++seen[q];
            EXPECT_EQ(plan.lineOfQubit[q], line);
        }
    }
    for (int s : seen)
        EXPECT_EQ(s, 1) << "each qubit on exactly one line";
}

TEST(Fdm, PlanCoversAllQubitsOnce)
{
    FdmGroupingConfig cfg;
    cfg.lineCapacity = 5;
    const FdmPlan plan = groupFdm(gridDistance(6, 6), cfg);
    expectValidPlan(plan, 36, 5);
    EXPECT_EQ(plan.lineCount(), 8u); // ceil(36/5)
}

TEST(Fdm, GroupsAreSpatiallyTight)
{
    // YOUTIAO's greedy groups must be tighter than index-order packing.
    const SymmetricMatrix d = gridDistance(6, 6);
    FdmGroupingConfig cfg;
    cfg.lineCapacity = 4;
    const FdmPlan ours = groupFdm(d, cfg);
    const ChipTopology chip = makeSquareGrid(6, 6);
    const FdmPlan baseline = groupFdmLocalCluster(chip, 4);
    EXPECT_LT(meanIntraGroupDistance(ours, d),
              meanIntraGroupDistance(baseline, d) * 1.05);
}

TEST(Fdm, CapacityOneIsDedicated)
{
    const FdmPlan plan = groupFdm(gridDistance(2, 2), {1});
    EXPECT_EQ(plan.lineCount(), 4u);
    EXPECT_EQ(plan.maxGroupSize(), 1u);
}

TEST(Fdm, ExactCapacityFill)
{
    FdmGroupingConfig cfg;
    cfg.lineCapacity = 3;
    const FdmPlan plan = groupFdm(gridDistance(3, 3), cfg);
    EXPECT_EQ(plan.lineCount(), 3u);
    for (const auto &line : plan.lines)
        EXPECT_EQ(line.size(), 3u);
}

TEST(Fdm, PaperExampleGreedyGrowth)
{
    // Figure 7 (a): the next member is always the ungrouped qubit with
    // minimal equivalent distance to any current member.
    SymmetricMatrix d(5, 100.0);
    // q0-q1 close, q0-q4 medium, q1-q2 slightly farther, q2-q3 close.
    d(0, 1) = 1.0;
    d(0, 4) = 2.0;
    d(1, 2) = 3.0;
    d(2, 3) = 1.0;
    FdmGroupingConfig cfg;
    cfg.lineCapacity = 3;
    const FdmPlan plan = groupFdm(d, cfg);
    // group 1 = {0, 1, 4}: d(0,4)=2 beats d(1,2)=3.
    const std::set<std::size_t> group1(plan.lines[0].begin(),
                                       plan.lines[0].end());
    EXPECT_EQ(group1, (std::set<std::size_t>{0, 1, 4}));
    const std::set<std::size_t> group2(plan.lines[1].begin(),
                                       plan.lines[1].end());
    EXPECT_EQ(group2, (std::set<std::size_t>{2, 3}));
}

TEST(Fdm, LocalClusterBaselinePacksByIndex)
{
    const ChipTopology chip = makeSquareGrid(2, 3);
    const FdmPlan plan = groupFdmLocalCluster(chip, 4);
    EXPECT_EQ(plan.lineCount(), 2u);
    EXPECT_EQ(plan.lines[0],
              (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(Fdm, InvalidConfigThrows)
{
    const SymmetricMatrix d = gridDistance(2, 2);
    EXPECT_THROW(groupFdm(d, {0}), ConfigError);
    EXPECT_THROW(groupFdm(SymmetricMatrix{}, {2}), ConfigError);
}

TEST(Fdm, MaxGroupSizeReported)
{
    FdmGroupingConfig cfg;
    cfg.lineCapacity = 5;
    const FdmPlan plan = groupFdm(gridDistance(2, 3), cfg); // 6 qubits
    EXPECT_EQ(plan.maxGroupSize(), 5u);
}

class FdmCapacitySweep : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(FdmCapacitySweep, LineCountIsCeilingOfRatio)
{
    const std::size_t capacity = GetParam();
    FdmGroupingConfig cfg;
    cfg.lineCapacity = capacity;
    const FdmPlan plan = groupFdm(gridDistance(6, 6), cfg);
    expectValidPlan(plan, 36, capacity);
    EXPECT_EQ(plan.lineCount(), (36 + capacity - 1) / capacity);
}

INSTANTIATE_TEST_SUITE_P(Capacities, FdmCapacitySweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 8, 36));

} // namespace
} // namespace youtiao

// -- topology sweep ---------------------------------------------------------

namespace youtiao {
namespace {

class FdmTopologySweep : public ::testing::TestWithParam<TopologyFamily>
{};

TEST_P(FdmTopologySweep, GroupingValidOnEveryFamily)
{
    const ChipTopology chip = makeTopology(GetParam());
    const SymmetricMatrix d = equivalentDistanceMatrix(
        qubitPhysicalDistanceMatrix(chip),
        qubitTopologicalDistanceMatrix(chip), 0.6, 0.4);
    FdmGroupingConfig cfg;
    cfg.lineCapacity = 5;
    const FdmPlan plan = groupFdm(d, cfg);
    expectValidPlan(plan, chip.qubitCount(), 5);
    EXPECT_EQ(plan.lineCount(), (chip.qubitCount() + 4) / 5)
        << topologyFamilyName(GetParam());
}

TEST_P(FdmTopologySweep, GroupsContainTopologicalNeighbours)
{
    // The greedy rule chains nearest qubits: on every family, most lines
    // should contain at least one coupled pair.
    const ChipTopology chip = makeTopology(GetParam());
    const SymmetricMatrix d = equivalentDistanceMatrix(
        qubitPhysicalDistanceMatrix(chip),
        qubitTopologicalDistanceMatrix(chip), 0.6, 0.4);
    FdmGroupingConfig cfg;
    cfg.lineCapacity = 4;
    const FdmPlan plan = groupFdm(d, cfg);
    std::size_t lines_with_neighbours = 0;
    for (const auto &line : plan.lines) {
        bool any = false;
        for (std::size_t i = 0; i < line.size() && !any; ++i)
            for (std::size_t j = i + 1; j < line.size() && !any; ++j)
                any = chip.qubitGraph().hasEdge(line[i], line[j]);
        if (any || line.size() < 2)
            ++lines_with_neighbours;
    }
    EXPECT_GE(2 * lines_with_neighbours, plan.lineCount())
        << topologyFamilyName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Families, FdmTopologySweep,
                         ::testing::Values(TopologyFamily::Square,
                                           TopologyFamily::Hexagon,
                                           TopologyFamily::HeavySquare,
                                           TopologyFamily::HeavyHexagon,
                                           TopologyFamily::LowDensity));

} // namespace
} // namespace youtiao
