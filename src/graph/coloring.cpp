#include "graph/coloring.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "common/error.hpp"

namespace youtiao {

namespace {

constexpr std::size_t kUncolored = static_cast<std::size_t>(-1);

std::vector<std::size_t>
resolveOrder(const Graph &g, const std::vector<std::size_t> &order)
{
    if (!order.empty()) {
        requireConfig(order.size() == g.vertexCount(),
                      "coloring order must cover every vertex exactly once");
        return order;
    }
    std::vector<std::size_t> seq(g.vertexCount());
    std::iota(seq.begin(), seq.end(), 0);
    return seq;
}

} // namespace

std::vector<std::size_t>
greedyColoring(const Graph &conflict, const std::vector<std::size_t> &order)
{
    const auto seq = resolveOrder(conflict, order);
    std::vector<std::size_t> colors(conflict.vertexCount(), kUncolored);
    std::vector<bool> used;
    for (std::size_t v : seq) {
        used.assign(conflict.vertexCount() + 1, false);
        for (const Incidence &inc : conflict.incidences(v)) {
            if (colors[inc.vertex] != kUncolored)
                used[colors[inc.vertex]] = true;
        }
        std::size_t c = 0;
        while (used[c])
            ++c;
        colors[v] = c;
    }
    return colors;
}

std::vector<std::size_t>
degreeDescendingOrder(const Graph &g)
{
    std::vector<std::size_t> order(g.vertexCount());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&g](std::size_t a, std::size_t b) {
                         return g.degree(a) > g.degree(b);
                     });
    return order;
}

} // namespace youtiao
