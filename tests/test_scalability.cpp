#include <gtest/gtest.h>

#include "core/scalability.hpp"
#include "oracles/checks.hpp"

namespace youtiao {
namespace {

TEST(Scalability, GridWithExactQubitCount)
{
    for (std::size_t n : {1u, 7u, 36u, 150u, 1000u}) {
        const ChipTopology chip = makeGridWithQubitCount(n);
        EXPECT_EQ(chip.qubitCount(), n);
        if (n > 1) {
            EXPECT_TRUE(isConnected(chip.qubitGraph()));
        }
    }
}

TEST(Scalability, GridCouplerCountNearTwoPerQubit)
{
    const ChipTopology chip = makeGridWithQubitCount(10000);
    const double ratio = static_cast<double>(chip.couplerCount()) /
                         static_cast<double>(chip.qubitCount());
    EXPECT_GT(ratio, 1.9);
    EXPECT_LT(ratio, 2.0);
}

TEST(Scalability, PaperFigure17a150Qubits)
{
    // Paper: a 150-qubit square system needs 613 Google coax; YOUTIAO
    // cuts it to 267 (2.3x). Our model reproduces the shape.
    const ScalePoint p = estimateSquareSystem(150);
    EXPECT_NEAR(static_cast<double>(p.googleCoax), 613.0, 40.0);
    EXPECT_NEAR(static_cast<double>(p.youtiaoCoax), 267.0, 40.0);
    EXPECT_GT(p.coaxReduction(), 2.0);
    EXPECT_LT(p.coaxReduction(), 2.9);
}

TEST(Scalability, ReductionGrowsTowardsLargeSystems)
{
    // Figure 17 (d): at 1k-100k qubits the reduction reaches ~3x.
    const ScalePoint small = estimateSquareSystem(100);
    const ScalePoint large = estimateSquareSystem(10000);
    EXPECT_GE(large.coaxReduction(), small.coaxReduction() - 0.1);
    EXPECT_GT(large.coaxReduction(), 2.0);
}

TEST(Scalability, CostSavingsAtHundredK)
{
    // Figure 17 (d): billions saved at 100k qubits (the paper reports
    // $2.3B with a more 1:4-heavy mix; our theta = 4 grid classification
    // yields $1.5B -- same shape, documented in EXPERIMENTS.md).
    const ScalePoint p = estimateSquareSystem(100000);
    EXPECT_GT(p.googleCostUsd - p.youtiaoCostUsd, 1.2e9);
    EXPECT_LT(p.youtiaoCostUsd, 0.55 * p.googleCostUsd);
}

TEST(Scalability, SweepMonotoneInQubits)
{
    std::vector<ScalePoint> points;
    for (std::size_t qubits : {10, 100, 1000})
        points.push_back(estimateSquareSystem(qubits));
    EXPECT_LT(points[0].googleCoax, points[1].googleCoax);
    EXPECT_LT(points[1].googleCoax, points[2].googleCoax);
    EXPECT_LT(points[0].youtiaoCoax, points[1].youtiaoCoax);
}

TEST(Scalability, IbmChipletComparison)
{
    // Figure 17 (c): 25 chiplets, ~3.4x cable reduction.
    const ChipletComparison cmp = compareIbmChiplet(25);
    EXPECT_EQ(cmp.copies, 25u);
    EXPECT_NEAR(static_cast<double>(cmp.qubitsPerChiplet), 133.0, 5.0);
    EXPECT_GT(cmp.cableReduction(), 2.8);
    EXPECT_LT(cmp.cableReduction(), 4.2);
    EXPECT_EQ(cmp.ibmCoax % cmp.copies, 0u);
}

TEST(Scalability, ChipletScalesLinearly)
{
    const ChipletComparison one = compareIbmChiplet(1);
    const ChipletComparison many = compareIbmChiplet(10);
    EXPECT_EQ(many.ibmCoax, 10 * one.ibmCoax);
    EXPECT_EQ(many.youtiaoCoax, 10 * one.youtiaoCoax);
}

TEST(Scalability, ZeroChipletsThrow)
{
    EXPECT_THROW(compareIbmChiplet(0), ConfigError);
}

TEST(Scalability, HighParallelismFractionOnSquareGrids)
{
    // Interior devices of square grids exceed theta = 4, so large grids
    // are dominated by 1:2 DEMUXes (the paper's square-topology story).
    const ScalePoint p = estimateSquareSystem(10000);
    const double frac = static_cast<double>(p.highParallelismDevices) /
                        static_cast<double>(p.qubits + p.couplers);
    EXPECT_GT(frac, 0.5);
}

} // namespace
} // namespace youtiao
