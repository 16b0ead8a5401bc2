/**
 * @file
 * Greedy graph-coloring utilities.
 *
 * TDM grouping (paper Section 4.3) is a constrained coloring problem:
 * devices that may need to operate in parallel must receive different
 * colors (DEMUX groups). These helpers provide the generic coloring core;
 * the multiplex module layers the parallelism-index ordering and capacity
 * constraints on top.
 */

#ifndef YOUTIAO_GRAPH_COLORING_HPP
#define YOUTIAO_GRAPH_COLORING_HPP

#include <cstddef>
#include <vector>

#include "graph/graph.hpp"

namespace youtiao {

/**
 * Greedy coloring in the given vertex order: each vertex gets the smallest
 * color not used by an already-colored neighbour. Returns one color per
 * vertex. With @p order empty, uses index order.
 */
std::vector<std::size_t> greedyColoring(
    const Graph &conflict, const std::vector<std::size_t> &order = {});

/** Vertex order of decreasing degree (Welsh-Powell order). */
std::vector<std::size_t> degreeDescendingOrder(const Graph &g);

} // namespace youtiao

#endif // YOUTIAO_GRAPH_COLORING_HPP
