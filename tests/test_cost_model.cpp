#include <gtest/gtest.h>

#include "chip/surface_code_layout.hpp"
#include "chip/topology_builder.hpp"
#include "common/error.hpp"
#include "cost/cost_model.hpp"
#include "noise/crosstalk_data.hpp"
#include "noise/equivalent_distance.hpp"

namespace youtiao {
namespace {

TEST(CostModel, GoogleSquareMatchesPaperTable2)
{
    // Square topology: 9 qubits, 12 couplers.
    const WiringCounts c = dedicatedWiringCounts(9, 12);
    EXPECT_EQ(c.xyLines, 9u);
    EXPECT_EQ(c.zLines, 21u);
    EXPECT_EQ(c.readoutFeeds, 2u);
    EXPECT_EQ(c.readoutDacs, 3u);
    EXPECT_EQ(c.dacs(), 33u);       // paper: #DAC = 33
    EXPECT_EQ(c.interfaces(), 32u); // paper: #interface = 32
    EXPECT_EQ(c.coax(), 32u);
    // paper: wiring cost $216K.
    EXPECT_NEAR(wiringCostUsd(c), 216e3, 4e3);
}

TEST(CostModel, GoogleHexagonMatchesPaperTable2)
{
    const WiringCounts c = dedicatedWiringCounts(16, 19);
    EXPECT_EQ(c.zLines, 35u);
    EXPECT_EQ(c.dacs(), 55u);
    EXPECT_EQ(c.interfaces(), 53u);
    EXPECT_NEAR(wiringCostUsd(c), 359e3, 4e3);
}

TEST(CostModel, GoogleHeavySquareMatchesPaperTable2)
{
    const WiringCounts c = dedicatedWiringCounts(21, 24);
    EXPECT_EQ(c.zLines, 45u);
    EXPECT_EQ(c.dacs(), 72u);
    EXPECT_EQ(c.interfaces(), 69u);
    EXPECT_NEAR(wiringCostUsd(c), 470e3, 4e3);
}

TEST(CostModel, GoogleHeavyHexagonMatchesPaperTable2)
{
    const WiringCounts c = dedicatedWiringCounts(21, 22);
    EXPECT_EQ(c.zLines, 43u);
    EXPECT_EQ(c.dacs(), 70u);
    EXPECT_EQ(c.interfaces(), 67u);
    EXPECT_NEAR(wiringCostUsd(c), 457e3, 4e3);
}

TEST(CostModel, GoogleLowDensityMatchesPaperTable2)
{
    const WiringCounts c = dedicatedWiringCounts(18, 18);
    EXPECT_EQ(c.zLines, 36u);
    EXPECT_EQ(c.dacs(), 59u);
    EXPECT_EQ(c.interfaces(), 57u);
    EXPECT_NEAR(wiringCostUsd(c), 385e3, 4e3);
}

TEST(CostModel, GoogleSurfaceCodeMatchesPaperTable1)
{
    // Table 1: Google, distance 3..11.
    const struct { std::size_t d, xy, z; double cost; } rows[] = {
        {3, 17, 41, 413e3},  {5, 49, 129, 1.25e6}, {7, 97, 265, 2.53e6},
        {9, 161, 449, 4.26e6}, {11, 241, 681, 6.43e6},
    };
    for (const auto &row : rows) {
        const SurfaceCodeLayout layout = makeSurfaceCodeLayout(row.d);
        const WiringCounts c = dedicatedWiringCounts(
            layout.chip.qubitCount(), layout.chip.couplerCount());
        EXPECT_EQ(c.xyLines, row.xy) << "d=" << row.d;
        EXPECT_EQ(c.zLines, row.z) << "d=" << row.d;
        EXPECT_NEAR(wiringCostUsd(c), row.cost, 0.012 * row.cost)
            << "d=" << row.d;
    }
}

TEST(CostModel, AnalyticYoutiaoSquareMatchesPaperTable2)
{
    // Square: 21 devices, 5 classified high -> 4x 1:4 + 3x 1:2 = 7 lines,
    // 11 select lines, matching the paper's YOUTIAO square column.
    const WiringCounts c = multiplexedWiringCountsAnalytic(9, 12, 5, 5);
    EXPECT_EQ(c.xyLines, 2u);
    EXPECT_EQ(c.zLines, 7u);
    EXPECT_EQ(c.demuxSelectLines, 11u);
    EXPECT_EQ(c.dacs(), 23u);       // paper: 23
    EXPECT_EQ(c.interfaces(), 22u); // paper: 22
    EXPECT_NEAR(wiringCostUsd(c), 79e3, 3e3); // paper: $79K
}

TEST(CostModel, AnalyticYoutiaoHexagonMatchesPaperTable2)
{
    // Hexagon: all 35 devices low-parallelism -> 9x 1:4 DEMUX.
    const WiringCounts c = multiplexedWiringCountsAnalytic(16, 19, 5, 0);
    EXPECT_EQ(c.xyLines, 4u);
    EXPECT_EQ(c.zLines, 9u);
    EXPECT_EQ(c.demuxSelectLines, 18u);
    EXPECT_EQ(c.dacs(), 35u);
    EXPECT_EQ(c.interfaces(), 33u);
    EXPECT_NEAR(wiringCostUsd(c), 111e3, 3e3);
}

TEST(CostModel, CostScalesWithPrices)
{
    // The prices back-solved from Tables 1-2: $3,000 per coax, $3,640
    // per RF DAC channel, $200 per DEMUX select line.
    const WiringCounts c = multiplexedWiringCountsAnalytic(9, 12, 5, 5);
    ASSERT_GT(c.demuxSelectLines, 0u);
    EXPECT_DOUBLE_EQ(wiringCostUsd(c),
                     3000.0 * static_cast<double>(c.coax()) +
                         3640.0 * static_cast<double>(c.rfDacs()) +
                         200.0 * static_cast<double>(c.demuxSelectLines));
}

TEST(CostModel, MultiplexedCountsFromPlans)
{
    const ChipTopology chip = makeSquare();
    Prng prng(1);
    const SymmetricMatrix zz =
        characterizeChip(chip, prng).zzCrosstalkMHz;
    FdmGroupingConfig fdm_cfg;
    fdm_cfg.lineCapacity = 5;
    const SymmetricMatrix d = qubitPhysicalDistanceMatrix(chip);
    const FdmPlan xy = groupFdm(d, fdm_cfg);
    const TdmPlan z = groupTdm(chip, zz);
    const WiringCounts c = multiplexedWiringCounts(9, xy, z);
    EXPECT_EQ(c.xyLines, xy.lineCount());
    EXPECT_EQ(c.zLines, z.lineCount());
    EXPECT_EQ(c.demuxSelectLines, z.selectLineCount());
    EXPECT_EQ(c.demux12, z.groupCountWithFanout(2));
    EXPECT_EQ(c.demux14, z.groupCountWithFanout(4));
    EXPECT_LT(wiringCostUsd(c), wiringCostUsd(dedicatedWiringCounts(9, 12)));
}

TEST(CostModel, BadInputsThrow)
{
    EXPECT_THROW(dedicatedWiringCounts(0, 0), ConfigError);
    EXPECT_THROW(multiplexedWiringCountsAnalytic(9, 12, 0, 0), ConfigError);
    EXPECT_THROW(multiplexedWiringCountsAnalytic(9, 12, 5, 50), ConfigError);
}

} // namespace
} // namespace youtiao
