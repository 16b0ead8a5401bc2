#include "routing/drc.hpp"

#include <queue>
#include <string>

namespace youtiao {

DrcReport
checkRoutingDrc(const RoutingGrid &grid, std::size_t net_count,
                const std::vector<Crossover> &crossovers)
{
    DrcReport report;
    const std::size_t w = grid.width();
    const std::size_t h = grid.height();

    // Gather per-net cell sets; a bridge cell belongs (for connectivity)
    // to both the owner below and the net crossing above.
    std::vector<std::vector<Cell>> cells(net_count);
    for (const Crossover &x : crossovers) {
        if (static_cast<std::size_t>(x.byNet) < net_count)
            cells[static_cast<std::size_t>(x.byNet)].push_back(x.cell);
    }
    // Row-major over owners(): the loop bounds are the grid's, so no cell
    // needs owner()'s range check.
    const std::vector<std::int32_t> &owners = grid.owners();
    for (std::size_t y = 0; y < h; ++y) {
        for (std::size_t x = 0; x < w; ++x) {
            const std::int32_t o = owners[y * w + x];
            if (o < 0)
                continue;
            if (static_cast<std::size_t>(o) >= net_count) {
                report.clean = false;
                report.violations.push_back(
                    "cell owned by unknown net " + std::to_string(o));
                continue;
            }
            cells[static_cast<std::size_t>(o)].push_back(Cell{x, y});
        }
    }

    // Per-net 4-connectivity over the unique member cells.
    for (std::size_t n = 0; n < net_count; ++n) {
        if (cells[n].empty())
            continue;
        std::vector<bool> member(w * h, false);
        std::size_t unique_members = 0;
        for (const Cell &c : cells[n]) {
            if (!member[c.y * w + c.x]) {
                member[c.y * w + c.x] = true;
                ++unique_members;
            }
        }
        std::vector<bool> seen(w * h, false);
        std::queue<Cell> frontier;
        frontier.push(cells[n].front());
        seen[cells[n].front().y * w + cells[n].front().x] = true;
        std::size_t reached = 1;
        while (!frontier.empty()) {
            const Cell c = frontier.front();
            frontier.pop();
            const long moves[4][2] = {{1, 0}, {-1, 0}, {0, 1}, {0, -1}};
            for (const auto &mv : moves) {
                const long nx = static_cast<long>(c.x) + mv[0];
                const long ny = static_cast<long>(c.y) + mv[1];
                if (nx < 0 || ny < 0 || nx >= static_cast<long>(w) ||
                    ny >= static_cast<long>(h))
                    continue;
                const std::size_t idx =
                    static_cast<std::size_t>(ny) * w +
                    static_cast<std::size_t>(nx);
                if (member[idx] && !seen[idx]) {
                    seen[idx] = true;
                    ++reached;
                    frontier.push(Cell{static_cast<std::size_t>(nx),
                                       static_cast<std::size_t>(ny)});
                }
            }
        }
        if (reached != unique_members) {
            report.clean = false;
            report.violations.push_back(
                "net " + std::to_string(n) + " is fragmented (" +
                std::to_string(reached) + "/" +
                std::to_string(unique_members) + " cells connected)");
        }
    }
    return report;
}

} // namespace youtiao
