#include <gtest/gtest.h>

#include "chip/topology_builder.hpp"
#include "multiplex/parallelism_index.hpp"

namespace youtiao {
namespace {

/**
 * The paper's worked example (Figure 8 (b)): a chip where
 * index(c1) = 1 and index(q3) = (3+4+5)/3 = 4.
 * Topology: q1-q2-q3 chain; q3 also couples to q4 and q7; q4 couples to
 * two more; q7 couples to three more.
 */
ChipTopology
paperExampleChip()
{
    ChipTopology chip("figure8");
    for (int i = 0; i < 12; ++i) {
        QubitInfo q;
        q.position = Point{static_cast<double>(i), 0.0};
        chip.addQubit(q);
    }
    chip.addCoupler(0, 1);  // c0: q1-q2   (0-based: q0-q1)
    chip.addCoupler(1, 2);  // c1: q2-q3
    chip.addCoupler(2, 3);  // c2: q3-q4
    chip.addCoupler(2, 6);  // c3: q3-q7
    chip.addCoupler(3, 4);  // q4's extra links
    chip.addCoupler(3, 5);
    chip.addCoupler(6, 7);  // q7's extra links
    chip.addCoupler(6, 8);
    chip.addCoupler(6, 9);
    return chip;
}

TEST(ParallelismIndex, PaperExampleCoupler)
{
    const ChipTopology chip = paperExampleChip();
    const auto index = parallelismIndices(chip);
    // c0 joins q0 (deg 1) and q1 (deg 2): 1 conflicting gate, conn 1.
    EXPECT_DOUBLE_EQ(index[chip.couplerDeviceId(0)], 1.0);
}

TEST(ParallelismIndex, PaperExampleQubit)
{
    const ChipTopology chip = paperExampleChip();
    const auto index = parallelismIndices(chip);
    // q2 (paper's q3) has gates with 3, 4 and 5 conflicts -> (3+4+5)/3.
    EXPECT_DOUBLE_EQ(index[2], 4.0);
}

TEST(ParallelismIndex, CouplerConflictFormula)
{
    const ChipTopology chip = makeSquareGrid(3, 3);
    const auto index = parallelismIndices(chip);
    const Graph &g = chip.qubitGraph();
    for (std::size_t c = 0; c < chip.couplerCount(); ++c) {
        const Edge &e = g.edge(c);
        EXPECT_DOUBLE_EQ(index[chip.couplerDeviceId(c)],
                         static_cast<double>(g.degree(e.u) +
                                             g.degree(e.v) - 2));
    }
}

TEST(ParallelismIndex, CenterQubitHighest)
{
    const ChipTopology chip = makeSquareGrid(3, 3);
    const auto index = parallelismIndices(chip);
    const std::size_t center = 4;
    for (std::size_t q = 0; q < chip.qubitCount(); ++q) {
        if (q != center) {
            EXPECT_LE(index[q], index[center]);
        }
    }
    EXPECT_DOUBLE_EQ(index[center], 5.0); // 4 gates, 5 conflicts each
}

TEST(ParallelismIndex, IsolatedQubitZero)
{
    ChipTopology chip("isolated");
    QubitInfo q;
    chip.addQubit(q);
    const auto index = parallelismIndices(chip);
    EXPECT_DOUBLE_EQ(index[0], 0.0);
}

TEST(ParallelismIndex, GatesOfDevice)
{
    const ChipTopology chip = makeSquareGrid(1, 3);
    // Qubit 1 touches both couplings; couplers own exactly their gate.
    EXPECT_EQ(gatesOfDevice(chip, 1).size(), 2u);
    EXPECT_EQ(gatesOfDevice(chip, chip.couplerDeviceId(0)),
              (std::vector<std::size_t>{0}));
}

TEST(ParallelismIndex, GatesConflictSharedQubit)
{
    const ChipTopology chip = makeSquareGrid(1, 3);
    EXPECT_TRUE(gatesConflict(chip, 0, 1)); // share middle qubit
    EXPECT_FALSE(gatesConflict(chip, 0, 0));
}

TEST(ParallelismIndex, LowDensityMostlyLow)
{
    // The paper: low-density topologies have low parallelism indices,
    // suiting 1:4 DEMUXes.
    const ChipTopology chip = makeLowDensity();
    const auto index = parallelismIndices(chip);
    std::size_t low = 0;
    for (double i : index)
        if (i < 4.0)
            ++low;
    EXPECT_GT(low, 2 * index.size() / 3);
}

TEST(ParallelismIndex, SquareGridInteriorHigh)
{
    // Square topology exhibits the highest parallelism (paper Fig 16).
    const ChipTopology chip = makeSquareGrid(6, 6);
    const auto index = parallelismIndices(chip);
    // An interior qubit (e.g. 14 = row 2 col 2) has 4 gates of 6
    // conflicts each -> index 6.
    EXPECT_DOUBLE_EQ(index[14], 6.0);
}

} // namespace
} // namespace youtiao
