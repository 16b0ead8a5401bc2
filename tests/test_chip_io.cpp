#include <gtest/gtest.h>

#include <sstream>

#include "chip/chip_io.hpp"
#include "chip/topology_builder.hpp"
#include "common/error.hpp"
#include "core/youtiao.hpp"

namespace youtiao {
namespace {

/** Parse a chip from text, the way loadChip reads a file. */
ChipTopology
chipFromString(const std::string &text)
{
    std::istringstream in(text);
    return loadChip(in);
}

TEST(ChipIo, RoundTripTopology)
{
    const ChipTopology original = makeHeavyHexagon();
    const ChipTopology loaded = chipFromString(chipToString(original));
    EXPECT_EQ(loaded.name(), original.name());
    ASSERT_EQ(loaded.qubitCount(), original.qubitCount());
    ASSERT_EQ(loaded.couplerCount(), original.couplerCount());
    for (std::size_t q = 0; q < loaded.qubitCount(); ++q) {
        EXPECT_DOUBLE_EQ(loaded.qubit(q).position.x,
                         original.qubit(q).position.x);
        EXPECT_DOUBLE_EQ(loaded.qubit(q).position.y,
                         original.qubit(q).position.y);
        EXPECT_DOUBLE_EQ(loaded.qubit(q).baseFrequencyGHz,
                         original.qubit(q).baseFrequencyGHz);
        EXPECT_DOUBLE_EQ(loaded.qubit(q).t1Ns, original.qubit(q).t1Ns);
    }
    for (std::size_t c = 0; c < loaded.couplerCount(); ++c) {
        EXPECT_EQ(loaded.coupler(c).qubitA, original.coupler(c).qubitA);
        EXPECT_EQ(loaded.coupler(c).qubitB, original.coupler(c).qubitB);
    }
}

TEST(ChipIo, HandWrittenFileParses)
{
    const std::string text =
        "# a 3-qubit chain\n"
        "youtiao-chip 1\n"
        "name chain3\n"
        "qubit 0.0 0.0 4.5\n"
        "qubit 1.6 0.0 5.5\n"
        "qubit 3.2 0.0\n"
        "coupler 0 1\n"
        "coupler 1 2\n";
    const ChipTopology chip = chipFromString(text);
    EXPECT_EQ(chip.name(), "chain3");
    EXPECT_EQ(chip.qubitCount(), 3u);
    EXPECT_EQ(chip.couplerCount(), 2u);
    EXPECT_DOUBLE_EQ(chip.qubit(1).baseFrequencyGHz, 5.5);
    EXPECT_DOUBLE_EQ(chip.qubit(2).baseFrequencyGHz, 5.0); // default
    EXPECT_TRUE(chip.qubitGraph().hasEdge(0, 1));
}

TEST(ChipIo, RejectsBadHeader)
{
    EXPECT_THROW(chipFromString("garbage"), ConfigError);
    EXPECT_THROW(chipFromString("youtiao-chip 99\nname x\nqubit 0 0\n"),
                 ConfigError);
}

TEST(ChipIo, RejectsBadCoupler)
{
    const std::string text = "youtiao-chip 1\nname x\nqubit 0 0\n"
                             "coupler 0 5\n";
    EXPECT_THROW(chipFromString(text), ConfigError);
}

TEST(ChipIo, RejectsUnknownKey)
{
    EXPECT_THROW(chipFromString("youtiao-chip 1\nname x\nwidget 1\n"),
                 ConfigError);
}

TEST(ChipIo, RejectsEmptyChip)
{
    EXPECT_THROW(chipFromString("youtiao-chip 1\nname x\n"), ConfigError);
}

TEST(ChipIo, LoadedChipDesignable)
{
    // End-to-end: a file-defined chip goes through the whole pipeline.
    const ChipTopology chip =
        chipFromString(chipToString(makeSquareGrid(3, 3)));
    Prng prng(4);
    const ChipCharacterization data = characterizeChip(chip, prng);
    YoutiaoConfig config;
    config.fit.forest.treeCount = 8;
    const YoutiaoDesign design = YoutiaoDesigner(config).design(chip, data);
    EXPECT_TRUE(allGatesRealizable(chip, design.zPlan));
}

} // namespace
} // namespace youtiao
