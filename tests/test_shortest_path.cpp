#include <gtest/gtest.h>

#include "chip/topology_builder.hpp"
#include "common/error.hpp"
#include "graph/graph.hpp"
#include "graph/shortest_path.hpp"
#include "noise/equivalent_distance.hpp"

namespace youtiao {
namespace {

/** Path graph 0-1-2-3. */
Graph
pathGraph()
{
    Graph g(4);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    g.addEdge(2, 3);
    return g;
}

/** 4-cycle 0-1-3-2-0: two shortest paths between opposite corners. */
Graph
squareCycle()
{
    Graph g(4);
    g.addEdge(0, 1);
    g.addEdge(1, 3);
    g.addEdge(3, 2);
    g.addEdge(2, 0);
    return g;
}

TEST(ShortestPath, HopsOnPathGraph)
{
    const Graph g = pathGraph();
    const auto bfs = multiPathBfs(g, 0);
    EXPECT_EQ(bfs.hops[0], 0u);
    EXPECT_EQ(bfs.hops[1], 1u);
    EXPECT_EQ(bfs.hops[3], 3u);
    for (std::size_t count : bfs.pathCount)
        EXPECT_EQ(count, 1u);
}

TEST(ShortestPath, HopDistanceFunction)
{
    const Graph g = pathGraph();
    EXPECT_EQ(hopDistance(g, 0, 3), 3u);
    EXPECT_EQ(hopDistance(g, 2, 2), 0u);
}

TEST(ShortestPath, MultiplicityOnCycle)
{
    const Graph g = squareCycle();
    const auto bfs = multiPathBfs(g, 0);
    // Opposite corner (vertex 3): two 2-hop paths.
    EXPECT_EQ(bfs.hops[3], 2u);
    EXPECT_EQ(bfs.pathCount[3], 2u);
}

// The paper's d_top = n * l (Sec 4.1), pinned on the matrix the designer
// builds from a chip's coupling graph (qubit id = row * cols + col).

TEST(ShortestPath, MultiPathDistanceIsNTimesL)
{
    const SymmetricMatrix d =
        qubitTopologicalDistanceMatrix(makeSquareGrid(2, 3));
    // Corner to opposite corner of a 2x3 ladder: l = 3, n = 3.
    EXPECT_DOUBLE_EQ(d(0, 5), 3.0 * 3.0);
    // Adjacent qubits: l = 1, n = 1.
    EXPECT_DOUBLE_EQ(d(0, 1), 1.0);
    EXPECT_DOUBLE_EQ(d(2, 2), 0.0);
}

TEST(ShortestPath, GridCenterMultiplicity)
{
    const SymmetricMatrix d =
        qubitTopologicalDistanceMatrix(makeSquareGrid(3, 3));
    // Corner (0) to centre (4): 2 shortest 2-hop paths.
    EXPECT_DOUBLE_EQ(d(0, 4), 2.0 * 2.0);
    // Corner to opposite corner: l = 4, n = C(4,2) = 6 -> 24.
    EXPECT_DOUBLE_EQ(d(0, 8), 4.0 * 6.0);
}

TEST(ShortestPath, UnreachableReported)
{
    Graph g(3);
    g.addEdge(0, 1);
    EXPECT_EQ(hopDistance(g, 0, 2), kUnreachable);
    EXPECT_EQ(multiPathBfs(g, 0).pathCount[2], 0u);
}

TEST(ShortestPath, AllPairsMatchesSingleSource)
{
    const ChipTopology chip = makeSquareGrid(3, 4);
    const SymmetricMatrix d = qubitTopologicalDistanceMatrix(chip);
    for (std::size_t i = 0; i < chip.qubitCount(); ++i) {
        const MultiPathResult bfs = multiPathBfs(chip.qubitGraph(), i);
        for (std::size_t j = 0; j < chip.qubitCount(); ++j)
            EXPECT_DOUBLE_EQ(d(i, j),
                             static_cast<double>(bfs.hops[j] *
                                                 bfs.pathCount[j]));
    }
}

} // namespace
} // namespace youtiao
