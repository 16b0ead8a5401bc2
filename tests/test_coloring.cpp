#include <gtest/gtest.h>

#include "common/error.hpp"
#include "graph/coloring.hpp"
#include "oracles/checks.hpp"

namespace youtiao {
namespace {

Graph
triangle()
{
    Graph g(3);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    g.addEdge(0, 2);
    return g;
}

TEST(Coloring, TriangleNeedsThreeColors)
{
    const Graph g = triangle();
    const auto colors = greedyColoring(g);
    EXPECT_TRUE(isProperColoring(g, colors));
    EXPECT_EQ(colorCount(colors), 3u);
}

TEST(Coloring, PathNeedsTwoColors)
{
    Graph g(5);
    for (std::size_t i = 0; i + 1 < 5; ++i)
        g.addEdge(i, i + 1);
    const auto colors = greedyColoring(g);
    EXPECT_TRUE(isProperColoring(g, colors));
    EXPECT_EQ(colorCount(colors), 2u);
}

TEST(Coloring, EmptyGraphSingleColorPerVertex)
{
    Graph g(4); // no edges
    const auto colors = greedyColoring(g);
    EXPECT_EQ(colorCount(colors), 1u);
}

TEST(Coloring, CustomOrderRespected)
{
    Graph g(3);
    g.addEdge(0, 1);
    const auto colors = greedyColoring(g, {2, 1, 0});
    EXPECT_TRUE(isProperColoring(g, colors));
    EXPECT_EQ(colors[2], 0u); // first in order gets color 0
}

TEST(Coloring, BadOrderThrows)
{
    Graph g(3);
    EXPECT_THROW(greedyColoring(g, {0, 1}), ConfigError);
}

TEST(Coloring, IsProperDetectsViolation)
{
    const Graph g = triangle();
    EXPECT_FALSE(isProperColoring(g, {0, 0, 1}));
    EXPECT_FALSE(isProperColoring(g, {0, 1})); // wrong size
}

TEST(Coloring, DegreeDescendingOrder)
{
    Graph g(4);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    g.addEdge(1, 3);
    const auto order = degreeDescendingOrder(g);
    EXPECT_EQ(order.front(), 1u); // degree 3 first
}

} // namespace
} // namespace youtiao
