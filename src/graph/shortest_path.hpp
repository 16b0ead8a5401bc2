/**
 * @file
 * Shortest-path algorithms, including the multi-path metric YOUTIAO's
 * equivalent distance builds on.
 *
 * Section 4.1 of the paper defines the topological distance between two
 * qubits as d_top = n * l, where l is the unweighted shortest-path length
 * and n the number of distinct shortest paths ("multi-path metrics are more
 * robust, especially for chips arranged in a square topology").
 */

#ifndef YOUTIAO_GRAPH_SHORTEST_PATH_HPP
#define YOUTIAO_GRAPH_SHORTEST_PATH_HPP

#include <cstddef>
#include <limits>
#include <vector>

#include "graph/graph.hpp"

namespace youtiao {

/** Sentinel distance for unreachable vertex pairs. */
inline constexpr std::size_t kUnreachable =
    std::numeric_limits<std::size_t>::max();

/** Hop distance and shortest-path multiplicity from one source vertex. */
struct MultiPathResult
{
    /** Hop count per vertex (kUnreachable when disconnected). */
    std::vector<std::size_t> hops;
    /**
     * Number of distinct shortest paths per vertex, saturated at a large
     * cap to avoid overflow on highly regular lattices.
     */
    std::vector<std::size_t> pathCount;
};

/**
 * BFS from @p source computing hop distances and shortest-path counts for
 * every vertex.
 */
MultiPathResult multiPathBfs(const Graph &g, std::size_t source);

/** Unweighted hop distance between two vertices (kUnreachable if none). */
std::size_t hopDistance(const Graph &g, std::size_t from, std::size_t to);

} // namespace youtiao

#endif // YOUTIAO_GRAPH_SHORTEST_PATH_HPP
