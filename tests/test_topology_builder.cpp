#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "chip/topology_builder.hpp"
#include "common/error.hpp"
#include "oracles/checks.hpp"

namespace youtiao {
namespace {

TEST(TopologyBuilder, SquareGridCounts)
{
    const ChipTopology chip = makeSquareGrid(6, 6);
    EXPECT_EQ(chip.qubitCount(), 36u);
    EXPECT_EQ(chip.couplerCount(), 60u); // 2*6*5
    EXPECT_TRUE(isConnected(chip.qubitGraph()));
}

TEST(TopologyBuilder, SquareMatchesPaperTable2)
{
    const ChipTopology chip = makeSquare();
    EXPECT_EQ(chip.qubitCount(), 9u);
    EXPECT_EQ(chip.couplerCount(), 12u);
}

TEST(TopologyBuilder, HexagonMatchesPaperTable2)
{
    const ChipTopology chip = makeHexagon();
    EXPECT_EQ(chip.qubitCount(), 16u);
    EXPECT_EQ(chip.couplerCount(), 19u);
    EXPECT_TRUE(isConnected(chip.qubitGraph()));
    for (std::size_t q = 0; q < chip.qubitCount(); ++q)
        EXPECT_LE(chip.qubitGraph().degree(q), 3u);
}

TEST(TopologyBuilder, HeavySquareMatchesPaperTable2)
{
    const ChipTopology chip = makeHeavySquare();
    EXPECT_EQ(chip.qubitCount(), 21u);
    EXPECT_EQ(chip.couplerCount(), 24u);
    EXPECT_TRUE(isConnected(chip.qubitGraph()));
}

TEST(TopologyBuilder, HeavyHexagonMatchesPaperTable2)
{
    const ChipTopology chip = makeHeavyHexagon();
    EXPECT_EQ(chip.qubitCount(), 21u);
    EXPECT_EQ(chip.couplerCount(), 22u);
    EXPECT_TRUE(isConnected(chip.qubitGraph()));
}

TEST(TopologyBuilder, LowDensityMatchesPaperTable2)
{
    const ChipTopology chip = makeLowDensity();
    EXPECT_EQ(chip.qubitCount(), 18u);
    EXPECT_EQ(chip.couplerCount(), 18u);
    EXPECT_TRUE(isConnected(chip.qubitGraph()));
    // Average degree 2: the sparse arrangement the paper multiplexes best.
    EXPECT_EQ(2 * chip.couplerCount() / chip.qubitCount(), 2u);
}

TEST(TopologyBuilder, HeavyVariantDoublesEdges)
{
    const ChipTopology base = makeSquareGrid(2, 3);
    const ChipTopology heavy = makeHeavy(base);
    EXPECT_EQ(heavy.qubitCount(),
              base.qubitCount() + base.couplerCount());
    EXPECT_EQ(heavy.couplerCount(), 2 * base.couplerCount());
}

TEST(TopologyBuilder, FrequenciesDetuneNeighbours)
{
    const ChipTopology chip = makeSquareGrid(4, 4);
    for (const CouplerInfo &c : chip.couplers()) {
        const double df = std::abs(chip.qubit(c.qubitA).baseFrequencyGHz -
                                   chip.qubit(c.qubitB).baseFrequencyGHz);
        EXPECT_GT(df, 0.1) << "coupled qubits must not share a band";
    }
}

TEST(TopologyBuilder, FrequenciesWithinBand)
{
    const ChipTopology chip = makeHexagon(3, 3);
    for (const QubitInfo &q : chip.qubits()) {
        EXPECT_GE(q.baseFrequencyGHz, 4.0);
        EXPECT_LE(q.baseFrequencyGHz, 7.0);
    }
}

TEST(TopologyBuilder, DeterministicForSeed)
{
    const ChipTopology a = makeSquareGrid(3, 3);
    const ChipTopology b = makeSquareGrid(3, 3);
    for (std::size_t q = 0; q < a.qubitCount(); ++q)
        EXPECT_DOUBLE_EQ(a.qubit(q).baseFrequencyGHz,
                         b.qubit(q).baseFrequencyGHz);
}

TEST(TopologyBuilder, PitchRespected)
{
    const ChipTopology chip = makeSquareGrid(2, 2);
    EXPECT_DOUBLE_EQ(chip.physicalDistance(0, 1), 1.6);
}

TEST(TopologyBuilder, FamilyDispatch)
{
    using enum TopologyFamily;
    const auto cases = {
        std::tuple{Square, std::size_t{9}},
        std::tuple{Hexagon, std::size_t{16}},
        std::tuple{HeavySquare, std::size_t{21}},
        std::tuple{HeavyHexagon, std::size_t{21}},
        std::tuple{LowDensity, std::size_t{18}},
    };
    for (const auto &[family, qubits] : cases)
        EXPECT_EQ(makeTopology(family).qubitCount(), qubits)
            << topologyFamilyName(family);
    EXPECT_EQ(makeTopology(SquareGrid, 4, 5).qubitCount(), 20u);
}

TEST(TopologyBuilder, FamilyNames)
{
    EXPECT_STREQ(topologyFamilyName(TopologyFamily::HeavyHexagon),
                 "heavy hexagon");
}

TEST(TopologyBuilder, InvalidDimensionsThrow)
{
    EXPECT_THROW(makeSquareGrid(0, 3), ConfigError);
    EXPECT_THROW(makeHexagon(0, 1), ConfigError);
}

class GridDimensions
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>>
{};

TEST_P(GridDimensions, CouplerCountFormula)
{
    const auto [rows, cols] = GetParam();
    const ChipTopology chip = makeSquareGrid(rows, cols);
    EXPECT_EQ(chip.qubitCount(), rows * cols);
    EXPECT_EQ(chip.couplerCount(), rows * (cols - 1) + cols * (rows - 1));
    EXPECT_TRUE(isConnected(chip.qubitGraph()));
}

INSTANTIATE_TEST_SUITE_P(
    Grids, GridDimensions,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1, 1},
                      std::pair<std::size_t, std::size_t>{1, 5},
                      std::pair<std::size_t, std::size_t>{2, 2},
                      std::pair<std::size_t, std::size_t>{3, 7},
                      std::pair<std::size_t, std::size_t>{8, 8},
                      std::pair<std::size_t, std::size_t>{10, 15}));

} // namespace
} // namespace youtiao
