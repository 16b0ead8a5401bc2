#include "graph/graph.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"

namespace youtiao {

Graph::Graph(std::size_t vertex_count)
    : adjacency_(vertex_count)
{}

std::size_t
Graph::addVertex()
{
    adjacency_.emplace_back();
    return adjacency_.size() - 1;
}

std::size_t
Graph::addEdge(std::size_t u, std::size_t v, double weight)
{
    checkVertex(u);
    checkVertex(v);
    requireConfig(u != v, "self-loops are not allowed");
    // Build the message only on failure: addEdge is on the chip- and
    // device-graph construction hot path, where an unconditional
    // to_string pair per edge dominated bulk loading.
    if (hasEdge(u, v))
        throw ConfigError("duplicate edge (" + std::to_string(u) +
                          ", " + std::to_string(v) + ")");
    const std::size_t index = edges_.size();
    adjacency_[u].push_back(Incidence{v, index});
    adjacency_[v].push_back(Incidence{u, index});
    edges_.push_back(Edge{u, v, weight});
    return index;
}

bool
Graph::hasEdge(std::size_t u, std::size_t v) const
{
    checkVertex(u);
    checkVertex(v);
    const bool u_smaller = adjacency_[u].size() <= adjacency_[v].size();
    const auto &list = u_smaller ? adjacency_[u] : adjacency_[v];
    const std::size_t target = u_smaller ? v : u;
    return std::any_of(list.begin(), list.end(),
                       [target](const Incidence &inc) {
                           return inc.vertex == target;
                       });
}

const std::vector<Incidence> &
Graph::incidences(std::size_t v) const
{
    checkVertex(v);
    return adjacency_[v];
}

std::vector<std::size_t>
Graph::neighbors(std::size_t v) const
{
    checkVertex(v);
    std::vector<std::size_t> out;
    out.reserve(adjacency_[v].size());
    for (const Incidence &inc : adjacency_[v])
        out.push_back(inc.vertex);
    return out;
}

std::size_t
Graph::degree(std::size_t v) const
{
    checkVertex(v);
    return adjacency_[v].size();
}

const Edge &
Graph::edge(std::size_t index) const
{
    requireConfig(index < edges_.size(), "edge index out of range");
    return edges_[index];
}

void
Graph::checkVertex(std::size_t v) const
{
    if (v >= adjacency_.size())
        throw ConfigError("vertex " + std::to_string(v) +
                          " out of range");
}

} // namespace youtiao
