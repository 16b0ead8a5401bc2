#include <gtest/gtest.h>

#include <set>

#include "chip/topology_builder.hpp"
#include "common/error.hpp"
#include "multiplex/tdm.hpp"
#include "noise/crosstalk_data.hpp"

namespace youtiao {
namespace {

SymmetricMatrix
zzFor(const ChipTopology &chip, std::uint64_t seed = 21)
{
    Prng prng(seed);
    return characterizeChip(chip, prng).zzCrosstalkMHz;
}

void
expectValidPlan(const ChipTopology &chip, const TdmPlan &plan)
{
    std::vector<int> seen(chip.deviceCount(), 0);
    for (std::size_t g = 0; g < plan.groups.size(); ++g) {
        EXPECT_FALSE(plan.groups[g].devices.empty());
        EXPECT_LE(plan.groups[g].devices.size(), plan.groups[g].fanout);
        for (std::size_t d : plan.groups[g].devices) {
            ++seen[d];
            EXPECT_EQ(plan.groupOfDevice[d], g);
        }
    }
    for (int s : seen)
        EXPECT_EQ(s, 1) << "each device on exactly one DEMUX";
    EXPECT_TRUE(allGatesRealizable(chip, plan));
}

TEST(Tdm, YoutiaoPlanValidOnSquare)
{
    const ChipTopology chip = makeSquare();
    const TdmPlan plan = groupTdm(chip, zzFor(chip));
    expectValidPlan(chip, plan);
    // Table 2: 21 devices multiplex onto ~7 Z lines.
    EXPECT_LE(plan.lineCount(), 9u);
    EXPECT_GE(plan.lineCount(), 6u);
}

TEST(Tdm, YoutiaoPlanValidOnAllTopologies)
{
    for (TopologyFamily family :
         {TopologyFamily::Square, TopologyFamily::Hexagon,
          TopologyFamily::HeavySquare, TopologyFamily::HeavyHexagon,
          TopologyFamily::LowDensity}) {
        const ChipTopology chip = makeTopology(family);
        const TdmPlan plan = groupTdm(chip, zzFor(chip));
        expectValidPlan(chip, plan);
        EXPECT_LT(plan.lineCount(), chip.deviceCount())
            << topologyFamilyName(family);
    }
}

TEST(Tdm, HexagonReachesPaperReduction)
{
    // Table 2: hexagon 35 devices -> 9 lines (3.9x).
    const ChipTopology chip = makeHexagon();
    const TdmPlan plan = groupTdm(chip, zzFor(chip));
    EXPECT_LE(plan.lineCount(), 11u);
}

TEST(Tdm, GateTripleNeverShares)
{
    const ChipTopology chip = makeSquareGrid(4, 4);
    const TdmPlan plan = groupTdm(chip, zzFor(chip));
    for (std::size_t c = 0; c < chip.couplerCount(); ++c) {
        const CouplerInfo &info = chip.coupler(c);
        const std::set<std::size_t> groups{
            plan.groupOfDevice[info.qubitA],
            plan.groupOfDevice[info.qubitB],
            plan.groupOfDevice[chip.couplerDeviceId(c)]};
        EXPECT_EQ(groups.size(), 3u);
    }
}

TEST(Tdm, ThresholdSplitsLevels)
{
    const ChipTopology chip = makeSquareGrid(5, 5);
    TdmGroupingConfig cfg;
    cfg.parallelismThreshold = 4.0;
    const TdmPlan plan = groupTdm(chip, zzFor(chip), cfg);
    EXPECT_GT(plan.groupCountWithFanout(2), 0u)
        << "square grids have high-parallelism interiors";
    EXPECT_GT(plan.groupCountWithFanout(4), 0u)
        << "boundaries are low-parallelism";
}

TEST(Tdm, HighThresholdMakesEverythingDeep)
{
    const ChipTopology chip = makeSquareGrid(4, 4);
    TdmGroupingConfig cfg;
    cfg.parallelismThreshold = 1e9;
    const TdmPlan plan = groupTdm(chip, zzFor(chip), cfg);
    EXPECT_EQ(plan.groupCountWithFanout(2), 0u);
}

TEST(Tdm, SelectLineCountFormula)
{
    const ChipTopology chip = makeSquareGrid(4, 4);
    const TdmPlan plan = groupTdm(chip, zzFor(chip));
    std::size_t expected = 0;
    for (const TdmGroup &g : plan.groups) {
        if (g.fanout == 4)
            expected += 2;
        else if (g.fanout == 2)
            expected += 1;
    }
    EXPECT_EQ(plan.selectLineCount(), expected);
}

TEST(Tdm, SingletonGroupsAreDedicated)
{
    const ChipTopology chip = makeSquareGrid(3, 3);
    const TdmPlan plan = groupTdm(chip, zzFor(chip));
    for (const TdmGroup &g : plan.groups) {
        if (g.devices.size() == 1) {
            EXPECT_EQ(g.fanout, 1u);
        }
    }
}

TEST(Tdm, LocalClusterBaselineValidButWorseGrouping)
{
    const ChipTopology chip = makeSquareGrid(4, 4);
    const TdmPlan local = groupTdmLocalCluster(chip, 4);
    expectValidPlan(chip, local);
}

TEST(Tdm, DedicatedPlanOneLinePerDevice)
{
    const ChipTopology chip = makeSquare();
    const TdmPlan plan = dedicatedZPlan(chip);
    EXPECT_EQ(plan.lineCount(), chip.deviceCount());
    EXPECT_EQ(plan.selectLineCount(), 0u);
    expectValidPlan(chip, plan);
}

TEST(Tdm, GateZzUsesWorstEndpointPair)
{
    const ChipTopology chip = makeSquareGrid(1, 3);
    SymmetricMatrix zz(3);
    zz(0, 1) = 0.1;
    zz(0, 2) = 0.9;
    zz(1, 2) = 0.3;
    // Gates 0 = (0,1), 1 = (1,2). Worst cross pair: (0,2) = 0.9.
    EXPECT_DOUBLE_EQ(gateZz(chip, zz, 0, 1), 0.9);
}

TEST(Tdm, DevicesShareGateDetection)
{
    const ChipTopology chip = makeSquareGrid(1, 3);
    const std::size_t c0 = chip.couplerDeviceId(0);
    EXPECT_TRUE(devicesShareGate(chip, 0, 1));  // coupled qubits
    EXPECT_TRUE(devicesShareGate(chip, 0, c0)); // qubit and its coupler
    EXPECT_FALSE(devicesShareGate(chip, 0, 2)); // not directly coupled
    EXPECT_FALSE(devicesShareGate(chip, c0, chip.couplerDeviceId(1)));
}

TEST(Tdm, PoolsMustCoverExactlyOnce)
{
    const ChipTopology chip = makeSquareGrid(2, 2);
    const SymmetricMatrix zz = zzFor(chip);
    std::vector<std::vector<std::size_t>> missing{{0, 1, 2}};
    EXPECT_THROW(groupTdmPools(chip, zz, {}, missing), ConfigError);
    std::vector<std::vector<std::size_t>> duplicated{
        {0, 1, 2, 3, 4, 5, 6, 7}, {0}};
    EXPECT_THROW(groupTdmPools(chip, zz, {}, duplicated), ConfigError);
}

TEST(Tdm, BadConfigThrows)
{
    const ChipTopology chip = makeSquareGrid(2, 2);
    EXPECT_THROW(groupTdm(chip, SymmetricMatrix(2), {}), ConfigError);
    EXPECT_THROW(groupTdmLocalCluster(chip, 1), ConfigError);
}

TEST(Tdm, NonParallelAwareGroupingPrefersConflictingDevices)
{
    // On a 1x3 chain, c0's and c1's gates conflict (share middle qubit),
    // so YOUTIAO should co-group the two couplers.
    const ChipTopology chip = makeSquareGrid(1, 3);
    const TdmPlan plan = groupTdm(chip, zzFor(chip));
    EXPECT_EQ(plan.groupOfDevice[chip.couplerDeviceId(0)],
              plan.groupOfDevice[chip.couplerDeviceId(1)]);
}

} // namespace
} // namespace youtiao

// -- threshold and fan-out sweeps ------------------------------------------

namespace youtiao {
namespace {

class ThetaSweep : public ::testing::TestWithParam<double>
{};

TEST_P(ThetaSweep, PlanValidAtEveryThreshold)
{
    const ChipTopology chip = makeSquareGrid(5, 5);
    const SymmetricMatrix zz = zzFor(chip, 99);
    TdmGroupingConfig cfg;
    cfg.parallelismThreshold = GetParam();
    const TdmPlan plan = groupTdm(chip, zz, cfg);
    expectValidPlan(chip, plan);
}

TEST_P(ThetaSweep, HigherThresholdNeverMoreLines)
{
    // Raising theta moves devices from 1:2 to 1:4 pools; line count is
    // monotonically non-increasing in theta (up to greedy noise, so we
    // allow a single line of slack).
    const ChipTopology chip = makeSquareGrid(4, 4);
    const SymmetricMatrix zz = zzFor(chip, 7);
    TdmGroupingConfig lo_cfg;
    lo_cfg.parallelismThreshold = GetParam();
    TdmGroupingConfig hi_cfg;
    hi_cfg.parallelismThreshold = GetParam() + 2.0;
    const TdmPlan lo = groupTdm(chip, zz, lo_cfg);
    const TdmPlan hi = groupTdm(chip, zz, hi_cfg);
    EXPECT_LE(hi.lineCount(), lo.lineCount() + 1);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ThetaSweep,
                         ::testing::Values(0.0, 2.0, 4.0, 6.0, 8.0,
                                           1e6));

class FanoutSweep
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>>
{};

TEST_P(FanoutSweep, GroupsNeverExceedTheirFanout)
{
    const auto [low, high] = GetParam();
    const ChipTopology chip = makeHexagon(3, 3);
    const SymmetricMatrix zz = zzFor(chip, 3);
    const TdmPlan plan = groupTdm(chip, zz);
    for (const TdmGroup &g : plan.groups) {
        EXPECT_TRUE(g.fanout == 1 || g.fanout == low || g.fanout == high)
            << g.fanout;
        EXPECT_LE(g.devices.size(), g.fanout);
    }
    EXPECT_TRUE(allGatesRealizable(chip, plan));
}

// The fan-outs are the 1:4 and 1:2 cryo-DEMUXes' constants.
INSTANTIATE_TEST_SUITE_P(
    Fanouts, FanoutSweep,
    ::testing::Values(std::pair<std::size_t, std::size_t>{
        kLowParallelismFanout, kHighParallelismFanout}));

} // namespace
} // namespace youtiao
