// Graceful degradation through the design pipeline: clean runs through
// either API match each other and reproduce golden digests, every
// ladder rung produces a
// usable design with an honest DegradationReport, and exhaustion yields
// a structured DesignError instead of a crash.

#include <string>

#include <gtest/gtest.h>

#include "chip/topology_builder.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/prng.hpp"
#include "common/runledger.hpp"
#include "core/serialization.hpp"
#include "core/youtiao.hpp"
#include "multiplex/tdm.hpp"
#include "noise/crosstalk_data.hpp"

namespace youtiao {
namespace {

class DegradationTest : public ::testing::Test
{
  protected:
    void TearDown() override { fault::reset(); }

    static ChipTopology
    grid(std::size_t rows, std::size_t cols)
    {
        return makeTopology(TopologyFamily::SquareGrid, rows, cols);
    }

    static ChipCharacterization
    characterize(const ChipTopology &chip, std::uint64_t seed = 7)
    {
        Prng prng(seed);
        return characterizeChip(chip, prng);
    }
};

TEST_F(DegradationTest, CleanRobustRunMatchesThrowingPathBitForBit)
{
    const ChipTopology chip = grid(5, 5);
    const ChipCharacterization data = characterize(chip);
    YoutiaoConfig config;
    config.fit.forest.treeCount = 10;
    const YoutiaoDesigner designer(config);

    const YoutiaoDesign plain = designer.design(chip, data);
    auto robust = designer.designRobust(chip, data);
    ASSERT_TRUE(robust.hasValue());
    EXPECT_TRUE(robust.value().degradation.empty());
    EXPECT_EQ(designToString(plain), designToString(robust.value()));
}

TEST_F(DegradationTest, CleanMeasurementRobustRunMatchesThrowingPath)
{
    // Also across the partitioned regime (36 > threshold 24), so the
    // generative partition's PRNG consumption is covered too.
    const ChipTopology chip = grid(6, 6);
    const ChipCharacterization data = characterize(chip, 11);
    const YoutiaoDesigner designer;
    const YoutiaoDesign plain = designer.designFromMeasurements(chip, data);
    auto robust = designer.designFromMeasurementsRobust(chip, data);
    ASSERT_TRUE(robust.hasValue());
    EXPECT_TRUE(robust.value().degradation.empty());
    EXPECT_EQ(designToString(plain), designToString(robust.value()));
}

/**
 * FNV-1a digests of designToString() for one chip through each entry
 * point, recorded before the throwing entry points became wrappers over
 * the degradation ladder. Both APIs must reproduce them on a clean run.
 */
struct GoldenChip
{
    const char *name;
    ChipTopology (*make)();
    const char *design;       ///< design(chip, data)
    const char *withModels;   ///< designWithModels(chip, transfer models)
    const char *measurements; ///< designFromMeasurements(chip, data)
};

const GoldenChip kGoldenChips[] = {
    {"hexagon", [] { return makeHexagon(); }, "5bc6330e9f4a011a",
     "29f8c6914488d012", "f473033938730f20"},
    {"heavy hexagon", [] { return makeHeavyHexagon(); }, "d690e9a62b9e6f47",
     "8d79da091e1746b0", "b86dff3920ac6bcf"},
    // 36 qubits: above the partition threshold (24), so the generative
    // partition's PRNG consumption is pinned too.
    {"6x6 grid", [] { return makeSquareGrid(6, 6); }, "d356bcf79db9d0f5",
     "50005902ecf57905", "ff4c88290e10e87f"},
};

TEST_F(DegradationTest, CleanRunsMatchGoldenDigests)
{
    YoutiaoConfig config;
    config.fit.forest.treeCount = 10;
    const YoutiaoDesigner designer(config);
    // Transfer models for designWithModels (the Figure 12 workflow).
    const ChipTopology source = grid(4, 4);
    const YoutiaoDesign fitted =
        designer.design(source, characterize(source));

    auto digest = [](const YoutiaoDesign &design) {
        return runledger::fnv1aHex(designToString(design));
    };
    auto robustDigest = [&](const Expected<YoutiaoDesign, DesignError> &r) {
        if (!r.hasValue())
            return r.error().toString();
        EXPECT_TRUE(r.value().degradation.empty());
        return digest(r.value());
    };
    for (const GoldenChip &golden : kGoldenChips) {
        SCOPED_TRACE(golden.name);
        const ChipTopology chip = golden.make();
        const ChipCharacterization data = characterize(chip);

        const YoutiaoDesign plain = designer.design(chip, data);
        EXPECT_TRUE(plain.degradation.empty());
        EXPECT_EQ(digest(plain), golden.design);
        EXPECT_EQ(robustDigest(designer.designRobust(chip, data)),
                  golden.design);

        EXPECT_EQ(digest(designer.designWithModels(chip, fitted.xyModel,
                                                   fitted.zzModel)),
                  golden.withModels);
        EXPECT_EQ(robustDigest(designer.designWithModelsRobust(
                      chip, fitted.xyModel, fitted.zzModel)),
                  golden.withModels);

        EXPECT_EQ(digest(designer.designFromMeasurements(chip, data)),
                  golden.measurements);
        EXPECT_EQ(robustDigest(
                      designer.designFromMeasurementsRobust(chip, data)),
                  golden.measurements);
    }
}

TEST_F(DegradationTest, AllocationFaultWalksTheCapacityLadder)
{
    const ChipTopology chip = grid(5, 5);
    const ChipCharacterization data = characterize(chip);
    const YoutiaoDesigner designer;

    fault::configure("freq.allocate:0.5:42");
    fault::enable();
    auto first = designer.designFromMeasurementsRobust(chip, data);
    ASSERT_TRUE(first.hasValue());

    fault::reset();
    fault::configure("freq.allocate:0.5:42");
    fault::enable();
    auto second = designer.designFromMeasurementsRobust(chip, data);
    ASSERT_TRUE(second.hasValue());

    // Same spec + seed => identical fault pattern => identical report
    // and identical degraded design.
    EXPECT_EQ(first.value().degradation.summary(),
              second.value().degradation.summary());
    EXPECT_EQ(designToString(first.value()),
              designToString(second.value()));
    // The 0.5 rate must have cost at least one attempt somewhere in the
    // budget; when it did, the capacity shrank and the report says so.
    if (first.value().degradation.allocationAttempts > 1) {
        EXPECT_GT(first.value().degradation.fdmCapacityUsed, 0u);
        EXPECT_LT(first.value().degradation.fdmCapacityUsed,
                  designer.config().fdm.lineCapacity);
        EXPECT_FALSE(first.value().degradation.notes.empty());
        EXPECT_FALSE(first.value().degradation.empty());
    }
}

TEST_F(DegradationTest, AllocationBudgetExhaustionIsAStructuredError)
{
    const ChipTopology chip = grid(4, 4);
    const ChipCharacterization data = characterize(chip);
    const YoutiaoDesigner designer;
    fault::configure("freq.allocate:1.0");
    fault::enable();
    auto result = designer.designFromMeasurementsRobust(chip, data);
    ASSERT_FALSE(result.hasValue());
    EXPECT_EQ(result.error().stage, DesignStage::FrequencyAllocation);
    const std::string text = result.error().toString();
    EXPECT_NE(text.find("frequency_allocation"), std::string::npos);
    EXPECT_NE(text.find("attempts="), std::string::npos);
}

TEST_F(DegradationTest, PartitionFaultFallsBackToSingleRegion)
{
    const ChipTopology chip = grid(6, 6); // above the partition threshold
    const ChipCharacterization data = characterize(chip);
    const YoutiaoDesigner designer;
    fault::configure("design.partition:1.0");
    fault::enable();
    auto result = designer.designFromMeasurementsRobust(chip, data);
    ASSERT_TRUE(result.hasValue());
    EXPECT_EQ(result.value().partition.regions.size(), 1u);
    EXPECT_FALSE(result.value().degradation.notes.empty());
    EXPECT_FALSE(result.value().degradation.empty());
}

TEST_F(DegradationTest, TdmFaultFallsBackToDedicatedZLines)
{
    const ChipTopology chip = grid(4, 4);
    const ChipCharacterization data = characterize(chip);
    const YoutiaoDesigner designer;
    fault::configure("design.tdm_group:1.0");
    fault::enable();
    auto result = designer.designFromMeasurementsRobust(chip, data);
    ASSERT_TRUE(result.hasValue());
    for (const TdmGroup &group : result.value().zPlan.groups) {
        EXPECT_EQ(group.fanout, 1u);
        EXPECT_EQ(group.devices.size(), 1u);
    }
    EXPECT_TRUE(allGatesRealizable(chip, result.value().zPlan));
    EXPECT_FALSE(result.value().degradation.empty());
}

TEST_F(DegradationTest, DemuxChannelFaultsStrandDevicesOntoDedicatedLines)
{
    const ChipTopology chip = grid(4, 4);
    const ChipCharacterization data = characterize(chip);
    const YoutiaoDesigner designer;
    fault::configure("tdm.demux_channel:1.0");
    fault::enable();
    auto result = designer.designFromMeasurementsRobust(chip, data);
    ASSERT_TRUE(result.hasValue());
    const YoutiaoDesign &design = result.value();
    EXPECT_GT(design.degradation.demuxFallbackDevices, 0u);
    for (const TdmGroup &group : design.zPlan.groups)
        EXPECT_EQ(group.fanout == 1,
                  group.devices.size() == 1)
            << "fanout " << group.fanout << " devices "
            << group.devices.size();
    // groupOfDevice stays consistent after the rewiring.
    for (std::size_t g = 0; g < design.zPlan.groups.size(); ++g)
        for (std::size_t d : design.zPlan.groups[g].devices)
            EXPECT_EQ(design.zPlan.groupOfDevice[d], g);
    EXPECT_TRUE(allGatesRealizable(chip, design.zPlan));
    // The broken channels cost real hardware.
    EXPECT_GT(design.degradation.costDeltaUsd, 0.0);
}

TEST_F(DegradationTest, ReadoutFaultFallsBackToDedicatedFeedlines)
{
    const ChipTopology chip = grid(4, 4);
    const ChipCharacterization data = characterize(chip);
    const YoutiaoDesigner designer;
    fault::configure("design.readout:1.0");
    fault::enable();
    auto result = designer.designFromMeasurementsRobust(chip, data);
    ASSERT_TRUE(result.hasValue());
    for (const auto &line : result.value().readoutPlan.lines)
        EXPECT_EQ(line.size(), 1u);
    EXPECT_FALSE(result.value().degradation.empty());
}

TEST_F(DegradationTest, MismatchedCharacterizationIsAValidationError)
{
    const ChipTopology chip = grid(3, 3);
    const ChipCharacterization wrong; // empty matrices
    const YoutiaoDesigner designer;
    auto result = designer.designFromMeasurementsRobust(chip, wrong);
    ASSERT_FALSE(result.hasValue());
    EXPECT_EQ(result.error().stage, DesignStage::Validation);
}

TEST_F(DegradationTest, MismatchedCharacterizationThrowsConfigError)
{
    // The throwing twin raises the structured error as a ConfigError.
    const ChipTopology chip = grid(3, 3);
    const ChipCharacterization wrong;
    const YoutiaoDesigner designer;
    try {
        (void)designer.designFromMeasurements(chip, wrong);
        FAIL() << "a mismatched characterization must throw";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "characterization does not match the chip"),
                  std::string::npos);
    }
}

TEST_F(DegradationTest, DegradationSummaryOnlyPrintsWhenNonEmpty)
{
    DegradationReport report;
    EXPECT_TRUE(report.empty());
    report.demuxFallbackDevices = 2;
    report.costDeltaUsd = 123.456;
    EXPECT_FALSE(report.empty());
    const std::string text = report.summary();
    EXPECT_NE(text.find("-- degradation --"), std::string::npos);
    EXPECT_NE(text.find("demux fallback devices 2"), std::string::npos);
    EXPECT_NE(text.find("+123.46 USD"), std::string::npos);
}

} // namespace
} // namespace youtiao
