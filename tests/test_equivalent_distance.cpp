#include <gtest/gtest.h>

#include "chip/topology_builder.hpp"
#include "common/error.hpp"
#include "noise/equivalent_distance.hpp"

namespace youtiao {
namespace {

TEST(EquivalentDistance, PhysicalMatrixMatchesEuclidean)
{
    const ChipTopology chip = makeSquareGrid(2, 2);
    const SymmetricMatrix m = qubitPhysicalDistanceMatrix(chip);
    ASSERT_EQ(m.size(), 4u);
    EXPECT_DOUBLE_EQ(m(0, 1), chip.physicalDistance(0, 1));
    EXPECT_DOUBLE_EQ(m(0, 3),
                     chip.physicalDistance(0, 3)); // diagonal pair
    EXPECT_DOUBLE_EQ(m(2, 2), 0.0);
}

TEST(EquivalentDistance, TopologicalMatrixUsesMultiPath)
{
    const ChipTopology chip = makeSquareGrid(2, 2);
    const SymmetricMatrix m = qubitTopologicalDistanceMatrix(chip);
    // Adjacent: l=1, n=1. Diagonal on a 4-cycle: l=2, n=2 -> 4.
    EXPECT_DOUBLE_EQ(m(0, 1), 1.0);
    EXPECT_DOUBLE_EQ(m(0, 3), 4.0);
}

TEST(EquivalentDistance, WeightedCombination)
{
    const ChipTopology chip = makeSquareGrid(2, 2);
    const SymmetricMatrix phy = qubitPhysicalDistanceMatrix(chip);
    const SymmetricMatrix top = qubitTopologicalDistanceMatrix(chip);
    const SymmetricMatrix eq = equivalentDistanceMatrix(phy, top, 0.7, 0.3);
    for (std::size_t i = 0; i < 4; ++i) {
        for (std::size_t j = 0; j < 4; ++j)
            EXPECT_DOUBLE_EQ(eq(i, j),
                             0.7 * phy(i, j) + 0.3 * top(i, j));
    }
}

TEST(EquivalentDistance, MismatchedSizesThrow)
{
    SymmetricMatrix a(2), b(3);
    EXPECT_THROW(equivalentDistanceMatrix(a, b, 0.5, 0.5), ConfigError);
}

TEST(EquivalentDistance, DisconnectedPairsGetFinitePenalty)
{
    ChipTopology chip("disconnected");
    QubitInfo q;
    q.position = Point{0.0, 0.0};
    chip.addQubit(q);
    q.position = Point{1.0, 0.0};
    chip.addQubit(q);
    q.position = Point{2.0, 0.0};
    chip.addQubit(q);
    chip.addCoupler(0, 1); // qubit 2 isolated
    const SymmetricMatrix m = qubitTopologicalDistanceMatrix(chip);
    EXPECT_DOUBLE_EQ(m(0, 1), 1.0);
    EXPECT_DOUBLE_EQ(m(0, 2), 2.0); // 2x the max finite distance (1)
    EXPECT_GT(m(0, 2), m(0, 1));
}

TEST(EquivalentDistance, MonotoneWithGridSeparation)
{
    const ChipTopology chip = makeSquareGrid(1, 5); // a line of qubits
    const SymmetricMatrix phy = qubitPhysicalDistanceMatrix(chip);
    const SymmetricMatrix top = qubitTopologicalDistanceMatrix(chip);
    const SymmetricMatrix eq = equivalentDistanceMatrix(phy, top, 0.5, 0.5);
    EXPECT_LT(eq(0, 1), eq(0, 2));
    EXPECT_LT(eq(0, 2), eq(0, 3));
    EXPECT_LT(eq(0, 3), eq(0, 4));
}

} // namespace
} // namespace youtiao
