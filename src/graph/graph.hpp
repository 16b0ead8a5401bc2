/**
 * @file
 * Undirected graph with optional edge weights.
 *
 * The chip coupling map, the equivalent-distance graph used for FDM
 * grouping, and the conflict graphs used for TDM grouping are all instances
 * of this structure.
 */

#ifndef YOUTIAO_GRAPH_GRAPH_HPP
#define YOUTIAO_GRAPH_GRAPH_HPP

#include <cstddef>
#include <vector>

namespace youtiao {

/** A weighted undirected edge between vertices u and v. */
struct Edge
{
    std::size_t u = 0;
    std::size_t v = 0;
    double weight = 1.0;
};

/** Adjacency entry: the neighbour vertex and the connecting edge index. */
struct Incidence
{
    std::size_t vertex = 0;
    std::size_t edge = 0;
};

/**
 * Undirected graph over vertices [0, vertexCount).
 *
 * Parallel edges and self-loops are rejected. Adjacency is kept as
 * per-vertex incidence lists for O(degree) iteration with direct access to
 * edge weights.
 */
class Graph
{
  public:
    Graph() = default;

    /** Construct with @p vertex_count isolated vertices. */
    explicit Graph(std::size_t vertex_count);

    std::size_t vertexCount() const { return adjacency_.size(); }
    std::size_t edgeCount() const { return edges_.size(); }

    /** Append a new isolated vertex; returns its index. */
    std::size_t addVertex();

    /**
     * Add the undirected edge (u, v); returns its edge index.
     * Throws ConfigError on self-loops, duplicate edges, or bad vertices.
     */
    std::size_t addEdge(std::size_t u, std::size_t v, double weight = 1.0);

    /** True when (u, v) is an edge. */
    bool hasEdge(std::size_t u, std::size_t v) const;

    /** Incidence list (neighbour + edge index) of @p v. */
    const std::vector<Incidence> &incidences(std::size_t v) const;

    /** Neighbour vertex indices of @p v (copies out of the incidences). */
    std::vector<std::size_t> neighbors(std::size_t v) const;

    /** Degree of @p v. */
    std::size_t degree(std::size_t v) const;

    /** All edges, in insertion order. */
    const std::vector<Edge> &edges() const { return edges_; }

    /** Edge by index. */
    const Edge &edge(std::size_t index) const;

  private:
    void checkVertex(std::size_t v) const;

    std::vector<std::vector<Incidence>> adjacency_;
    std::vector<Edge> edges_;
};

} // namespace youtiao

#endif // YOUTIAO_GRAPH_GRAPH_HPP
