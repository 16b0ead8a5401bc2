#include "graph/shortest_path.hpp"

#include <queue>
#include <string>

#include "common/error.hpp"

namespace youtiao {

namespace {

// Cap multiplicities so n * l cannot overflow even on large lattices where
// the central pair may have combinatorially many shortest paths.
constexpr std::size_t kPathCountCap = 1u << 20;

} // namespace

MultiPathResult
multiPathBfs(const Graph &g, std::size_t source)
{
    requireConfig(source < g.vertexCount(), "BFS source out of range");
    MultiPathResult result;
    result.hops.assign(g.vertexCount(), kUnreachable);
    result.pathCount.assign(g.vertexCount(), 0);
    result.hops[source] = 0;
    result.pathCount[source] = 1;

    std::queue<std::size_t> frontier;
    frontier.push(source);
    while (!frontier.empty()) {
        const std::size_t v = frontier.front();
        frontier.pop();
        for (const Incidence &inc : g.incidences(v)) {
            const std::size_t n = inc.vertex;
            if (result.hops[n] == kUnreachable) {
                result.hops[n] = result.hops[v] + 1;
                result.pathCount[n] = result.pathCount[v];
                frontier.push(n);
            } else if (result.hops[n] == result.hops[v] + 1) {
                result.pathCount[n] = std::min(
                    kPathCountCap,
                    result.pathCount[n] + result.pathCount[v]);
            }
        }
    }
    return result;
}

std::size_t
hopDistance(const Graph &g, std::size_t from, std::size_t to)
{
    requireConfig(to < g.vertexCount(), "BFS target out of range");
    return multiPathBfs(g, from).hops[to];
}

} // namespace youtiao
