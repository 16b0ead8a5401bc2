#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "graph/graph.hpp"
#include "oracles/checks.hpp"

namespace youtiao {
namespace {

TEST(Graph, EmptyGraph)
{
    Graph g;
    EXPECT_EQ(g.vertexCount(), 0u);
    EXPECT_EQ(g.edgeCount(), 0u);
    EXPECT_TRUE(isConnected(g));
}

TEST(Graph, AddVerticesAndEdges)
{
    Graph g(3);
    EXPECT_EQ(g.addEdge(0, 1), 0u);
    EXPECT_EQ(g.addEdge(1, 2, 2.5), 1u);
    EXPECT_EQ(g.vertexCount(), 3u);
    EXPECT_EQ(g.edgeCount(), 2u);
    EXPECT_TRUE(g.hasEdge(0, 1));
    EXPECT_TRUE(g.hasEdge(1, 0));
    EXPECT_FALSE(g.hasEdge(0, 2));
    EXPECT_DOUBLE_EQ(g.edge(1).weight, 2.5);
}

TEST(Graph, AddVertexGrows)
{
    Graph g(1);
    const std::size_t v = g.addVertex();
    EXPECT_EQ(v, 1u);
    EXPECT_EQ(g.vertexCount(), 2u);
}

TEST(Graph, RejectsSelfLoop)
{
    Graph g(2);
    EXPECT_THROW(g.addEdge(1, 1), ConfigError);
}

TEST(Graph, RejectsDuplicateEdge)
{
    Graph g(2);
    g.addEdge(0, 1);
    EXPECT_THROW(g.addEdge(0, 1), ConfigError);
    EXPECT_THROW(g.addEdge(1, 0), ConfigError);
}

TEST(Graph, RejectsBadVertex)
{
    Graph g(2);
    EXPECT_THROW(g.addEdge(0, 5), ConfigError);
    EXPECT_THROW(g.degree(9), ConfigError);
}

TEST(Graph, NeighborsAndDegree)
{
    Graph g(4);
    g.addEdge(0, 1);
    g.addEdge(0, 2);
    g.addEdge(0, 3);
    EXPECT_EQ(g.degree(0), 3u);
    EXPECT_EQ(g.degree(1), 1u);
    auto n = g.neighbors(0);
    std::sort(n.begin(), n.end());
    EXPECT_EQ(n, (std::vector<std::size_t>{1, 2, 3}));
}

TEST(Graph, IncidenceEdgeIndicesMatch)
{
    Graph g(3);
    const std::size_t e01 = g.addEdge(0, 1);
    const std::size_t e12 = g.addEdge(1, 2);
    for (const Incidence &inc : g.incidences(1)) {
        if (inc.vertex == 0)
            EXPECT_EQ(inc.edge, e01);
        else
            EXPECT_EQ(inc.edge, e12);
    }
}

TEST(Graph, ConnectivityDetection)
{
    Graph g(4);
    g.addEdge(0, 1);
    g.addEdge(2, 3);
    EXPECT_FALSE(isConnected(g));
    g.addEdge(1, 2);
    EXPECT_TRUE(isConnected(g));
}

TEST(Graph, ConnectedComponentsLabels)
{
    Graph g(5);
    g.addEdge(0, 1);
    g.addEdge(3, 4);
    const auto labels = connectedComponents(g);
    EXPECT_EQ(labels[0], labels[1]);
    EXPECT_EQ(labels[3], labels[4]);
    EXPECT_NE(labels[0], labels[2]);
    EXPECT_NE(labels[0], labels[3]);
    EXPECT_NE(labels[2], labels[3]);
}

TEST(Graph, EdgeByIndex)
{
    Graph g(3);
    g.addEdge(0, 2, 1.5);
    const Edge &e = g.edge(0);
    EXPECT_EQ(e.u, 0u);
    EXPECT_EQ(e.v, 2u);
    EXPECT_DOUBLE_EQ(e.weight, 1.5);
    EXPECT_THROW(g.edge(1), ConfigError);
}

} // namespace
} // namespace youtiao
