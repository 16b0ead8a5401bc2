#include "noise/equivalent_distance.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "graph/shortest_path.hpp"

namespace youtiao {

SymmetricMatrix
qubitPhysicalDistanceMatrix(const ChipTopology &chip)
{
    const std::size_t n = chip.qubitCount();
    SymmetricMatrix m(n);
    for (std::size_t i = 0; i < n; ++i) {
        const Point pi = chip.qubit(i).position;
        for (std::size_t j = i + 1; j < n; ++j)
            m(i, j) = distance(pi, chip.qubit(j).position);
    }
    return m;
}

SymmetricMatrix
qubitTopologicalDistanceMatrix(const ChipTopology &chip)
{
    const Graph &g = chip.qubitGraph();
    const std::size_t n = g.vertexCount();
    SymmetricMatrix m(n);
    double max_finite = 0.0;
    std::vector<std::pair<std::size_t, std::size_t>> unreachable;
    for (std::size_t i = 0; i < n; ++i) {
        const MultiPathResult bfs = multiPathBfs(g, i);
        for (std::size_t j = i + 1; j < n; ++j) {
            if (bfs.hops[j] == kUnreachable) {
                unreachable.emplace_back(i, j);
            } else {
                const double d = static_cast<double>(bfs.hops[j]) *
                                 static_cast<double>(bfs.pathCount[j]);
                m(i, j) = d;
                max_finite = std::max(max_finite, d);
            }
        }
    }
    // Disconnected pairs are "infinitely" far; a finite 2x-max penalty
    // keeps the weighted combination well defined.
    const double penalty = max_finite > 0.0 ? 2.0 * max_finite : 1.0;
    for (const auto &[i, j] : unreachable)
        m(i, j) = penalty;
    return m;
}

SymmetricMatrix
equivalentDistanceMatrix(const SymmetricMatrix &physical,
                         const SymmetricMatrix &topological, double w_phy,
                         double w_top)
{
    requireConfig(physical.size() == topological.size(),
                  "distance matrices must agree in size");
    SymmetricMatrix m(physical.size());
    for (std::size_t i = 0; i < m.size(); ++i) {
        for (std::size_t j = i; j < m.size(); ++j)
            m(i, j) = w_phy * physical(i, j) + w_top * topological(i, j);
    }
    return m;
}

} // namespace youtiao
