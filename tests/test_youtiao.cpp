#include <gtest/gtest.h>

#include <set>

#include "chip/topology_builder.hpp"
#include "core/baselines.hpp"
#include "core/youtiao.hpp"

namespace youtiao {
namespace {

/** One full pipeline run on the paper's 6x6 chip, shared across tests. */
struct Designed
{
    ChipTopology chip = makeSquareGrid(6, 6);
    ChipCharacterization data;
    YoutiaoConfig config;
    YoutiaoDesign design;

    Designed()
    {
        Prng prng(77);
        data = characterizeChip(chip, prng);
        config.fit.forest.treeCount = 15;
        const YoutiaoDesigner designer(config);
        design = designer.design(chip, data);
    }
};

const Designed &
designed()
{
    static const Designed d;
    return d;
}

TEST(Youtiao, XyPlanCoversChipWithinCapacity)
{
    const auto &d = designed();
    std::vector<int> seen(36, 0);
    for (const auto &line : d.design.xyPlan.lines) {
        EXPECT_LE(line.size(), d.config.fdm.lineCapacity);
        for (std::size_t q : line)
            ++seen[q];
    }
    for (int s : seen)
        EXPECT_EQ(s, 1);
}

TEST(Youtiao, ZPlanLegal)
{
    const auto &d = designed();
    EXPECT_TRUE(allGatesRealizable(d.chip, d.design.zPlan));
}

TEST(Youtiao, PartitionUsedAboveThreshold)
{
    // 36 qubits > 24 threshold: multiple regions.
    EXPECT_GE(designed().design.partition.regionCount(), 2u);
}

TEST(Youtiao, SmallChipSkipsPartition)
{
    const ChipTopology chip = makeSquare();
    Prng prng(5);
    const ChipCharacterization data = characterizeChip(chip, prng);
    YoutiaoConfig config;
    config.fit.forest.treeCount = 10;
    const YoutiaoDesigner designer(config);
    const YoutiaoDesign design = designer.design(chip, data);
    EXPECT_EQ(design.partition.regionCount(), 1u);
}

TEST(Youtiao, FrequenciesAllocatedInBand)
{
    const auto &d = designed();
    for (double f : d.design.frequencyPlan.frequencyGHz) {
        EXPECT_GE(f, kXyBandLoGHz);
        EXPECT_LE(f, kXyBandHiGHz);
    }
}

TEST(Youtiao, InLineMembersZoneSeparated)
{
    const auto &d = designed();
    for (const auto &line : d.design.xyPlan.lines) {
        std::set<std::size_t> zones;
        for (std::size_t q : line)
            zones.insert(d.design.frequencyPlan.zoneOfQubit[q]);
        EXPECT_EQ(zones.size(), line.size());
    }
}

TEST(Youtiao, CheaperThanGoogle)
{
    const auto &d = designed();
    const BaselineDesign google = designGoogleWiring(d.chip, d.config);
    EXPECT_LT(d.design.costUsd, 0.5 * google.costUsd)
        << "paper reports ~3x cryostat-level cost reduction";
    EXPECT_LT(d.design.counts.coax(), google.counts.coax());
    EXPECT_LT(d.design.counts.interfaces(), google.counts.interfaces());
}

TEST(Youtiao, XyLineReductionNearPaper)
{
    // Paper: 4.2x XY line reduction on average at capacity 5.
    const auto &d = designed();
    const double reduction =
        36.0 / static_cast<double>(d.design.counts.xyLines);
    EXPECT_GE(reduction, 3.5);
    EXPECT_LE(reduction, 5.0);
}

TEST(Youtiao, ZLineReductionNearPaper)
{
    // Paper: 3.7x Z line reduction on average.
    const auto &d = designed();
    const double reduction =
        static_cast<double>(d.chip.deviceCount()) /
        static_cast<double>(d.design.counts.zLines);
    EXPECT_GE(reduction, 1.8);
    EXPECT_LE(reduction, 4.2);
}

TEST(Youtiao, PredictionMatricesCoverChip)
{
    const auto &d = designed();
    EXPECT_EQ(d.design.predictedXy.size(), 36u);
    EXPECT_EQ(d.design.predictedZzMHz.size(), 36u);
    EXPECT_GT(d.design.predictedZzMHz(0, 1), d.design.predictedXy(0, 1))
        << "ZZ is MHz-scale, XY is a probability";
}

TEST(Youtiao, FidelityContextConsistent)
{
    const auto &d = designed();
    const YoutiaoDesigner designer(d.config);
    const FidelityContext ctx =
        designer.makeFidelityContext(d.chip, d.design);
    EXPECT_EQ(ctx.frequencyGHz, d.design.frequencyPlan.frequencyGHz);
    EXPECT_EQ(ctx.fdmLineOfQubit, d.design.xyPlan.lineOfQubit);
    EXPECT_EQ(ctx.t1Ns.size(), 36u);
}

TEST(Youtiao, TransferredModelsDesign)
{
    // Figure 12 workflow: fit on the 6x6 chip, design the 8x8 chip.
    const ChipTopology big = makeSquareGrid(8, 8);
    const YoutiaoDesigner designer(designed().config);
    const YoutiaoDesign transferred = designer.designWithModels(
        big, designed().design.xyModel, designed().design.zzModel);
    EXPECT_EQ(transferred.frequencyPlan.frequencyGHz.size(), 64u);
    EXPECT_TRUE(allGatesRealizable(big, transferred.zPlan));
}

TEST(Youtiao, DeterministicGivenSeed)
{
    const YoutiaoDesigner designer(designed().config);
    const YoutiaoDesign again =
        designer.design(designed().chip, designed().data);
    EXPECT_EQ(again.counts.zLines, designed().design.counts.zLines);
    EXPECT_EQ(again.frequencyPlan.frequencyGHz,
              designed().design.frequencyPlan.frequencyGHz);
}

TEST(Youtiao, EmptyChipThrows)
{
    ChipTopology empty("none");
    const YoutiaoDesigner designer;
    CrosstalkModel untrained;
    EXPECT_THROW(designer.designWithModels(empty, untrained, untrained),
                 ConfigError);
}

} // namespace
} // namespace youtiao
