#include "routing/astar_router.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "common/watchdog.hpp"

namespace youtiao {

namespace {

/** Manhattan-distance heuristic; the caller's weight decides how
 *  goal-directed the search is (see AstarConfig::heuristicWeight). */
double
heuristic(const Cell &a, const Cell &b, double weight)
{
    const double dx = a.x > b.x ? static_cast<double>(a.x - b.x)
                                : static_cast<double>(b.x - a.x);
    const double dy = a.y > b.y ? static_cast<double>(a.y - b.y)
                                : static_cast<double>(b.y - a.y);
    return weight * (dx + dy);
}

constexpr int kDirCount = 4;
constexpr long kMoves[kDirCount][2] = {{1, 0}, {-1, 0}, {0, 1}, {0, -1}};

} // namespace

std::size_t
astarMaxCells()
{
    // The largest state index must stay below the no-parent sentinel
    // (uint32 max), so cells * kDirCount states must fit strictly.
    return (std::numeric_limits<std::uint32_t>::max() - kDirCount + 1) /
           kDirCount;
}

void
requireAstarIndexable(std::size_t width, std::size_t height)
{
    // Guard the multiplication itself: width * height may already wrap.
    const std::size_t limit = astarMaxCells();
    requireConfig(width == 0 || height <= limit / width,
                  "routing grid of " + std::to_string(width) + "x" +
                      std::to_string(height) +
                      " cells exceeds the A* 32-bit state index; shrink "
                      "the grid, coarsen the cell pitch, or use the "
                      "hierarchical tile router (64-bit corridor ids)");
}

std::optional<RoutedPath>
routeAstar(RoutingGrid &grid, Cell from, Cell to, std::int32_t net_id,
           const AstarConfig &config)
{
    SearchArena arena;
    return routeAstar(grid, from, to, net_id, arena, config);
}

std::optional<RoutedPath>
routeAstar(RoutingGrid &grid, Cell from, Cell to, std::int32_t net_id,
           SearchArena &arena, const AstarConfig &config)
{
    requireConfig(net_id >= 0, "net id must be non-negative");
    const std::size_t w = grid.width();
    const std::size_t h = grid.height();
    requireAstarIndexable(w, h);
    auto flat = [w](const Cell &c) { return c.y * w + c.x; };

    auto mine_or_free = [&](const Cell &c) {
        const std::int32_t o = grid.owner(c);
        return o == RoutingGrid::kFree || o == net_id;
    };
    // Endpoints must be plain cells; a bridge cannot start or end a path.
    if (!mine_or_free(from) || !mine_or_free(to))
        return std::nullopt;

    // Search state: (cell, incoming direction). Direction matters only on
    // foreign metal, where a bridge forces straight continuation. The
    // arena holds g/parent/closed per state; begin() invalidates the
    // previous search in O(1) instead of refilling O(states) memory.
    const std::size_t state_count = w * h * kDirCount;
    arena.begin(state_count);
    watchdog::gaugeMax(watchdog::Gauge::AstarArenaBytes,
                       arena.memoryBytes());
    constexpr std::uint32_t no_parent = SearchArena::kNoParent;

    using Entry = std::pair<double, std::uint32_t>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> open;
    // Seed: leaving the start cell in any direction.
    for (int d = 0; d < kDirCount; ++d) {
        const std::size_t s = flat(from) * kDirCount +
                              static_cast<std::size_t>(d);
        arena.relax(s, 0.0, no_parent);
        open.emplace(heuristic(from, to, config.heuristicWeight),
                     static_cast<std::uint32_t>(s));
    }

    std::uint32_t goal_state = no_parent;
    std::size_t expanded = 0;
    while (!open.empty()) {
        const auto [f, state] = open.top();
        open.pop();
        (void)f;
        if (arena.closed(state))
            continue;
        arena.close(state);
        ++expanded;
        // Strided: the branch in poll() is one relaxed load, but even
        // that is kept off the per-expansion critical path.
        if ((expanded & 0xFFF) == 0)
            cancel::poll("astar");
        const std::size_t idx = state / kDirCount;
        const int dir_in = static_cast<int>(state % kDirCount);
        const Cell here{idx % w, idx / w};
        if (here == to) {
            goal_state = state;
            break;
        }
        const bool on_bridge = !mine_or_free(here);
        for (int d = 0; d < kDirCount; ++d) {
            if (on_bridge && d != dir_in)
                continue; // bridges run straight
            const long nx = static_cast<long>(here.x) + kMoves[d][0];
            const long ny = static_cast<long>(here.y) + kMoves[d][1];
            if (nx < 0 || ny < 0 || nx >= static_cast<long>(w) ||
                ny >= static_cast<long>(h))
                continue;
            const Cell next{static_cast<std::size_t>(nx),
                            static_cast<std::size_t>(ny)};
            const std::int32_t owner = grid.owner(next);
            if (owner == RoutingGrid::kObstacle)
                continue;
            constexpr double kCrowdingPenalty = 0.25;
            constexpr double kBridgeCost = 25.0;
            double step;
            if (owner == net_id) {
                step = 0.02; // trunk reuse is nearly free
            } else if (owner == RoutingGrid::kFree) {
                step = 1.0;
                // Crowding: staying off pad walls keeps alleys open.
                for (const auto &mv : kMoves) {
                    const long ax = nx + mv[0];
                    const long ay = ny + mv[1];
                    if (ax < 0 || ay < 0 ||
                        ax >= static_cast<long>(w) ||
                        ay >= static_cast<long>(h))
                        continue;
                    const Cell adj{static_cast<std::size_t>(ax),
                                   static_cast<std::size_t>(ay)};
                    if (grid.owner(adj) == RoutingGrid::kObstacle) {
                        step += kCrowdingPenalty;
                        break;
                    }
                }
            } else {
                step = kBridgeCost; // airbridge crossover
            }
            const std::size_t nstate =
                flat(next) * kDirCount + static_cast<std::size_t>(d);
            const double cand = arena.g(state) + step;
            if (!arena.closed(nstate) && cand < arena.g(nstate)) {
                arena.relax(nstate, cand, state);
                open.emplace(cand + heuristic(next, to,
                                              config.heuristicWeight),
                             static_cast<std::uint32_t>(nstate));
            }
        }
    }
    metrics::count("astar.cells_expanded", expanded);
    metrics::observe("astar.cells_expanded",
                     static_cast<double>(expanded));
    trace::counter("astar.cells_expanded",
                   static_cast<double>(expanded), "routing");
    if (goal_state == no_parent) {
        metrics::count("astar.failed_routes");
        trace::instant("astar.failed_route", "routing");
        return std::nullopt;
    }

    RoutedPath path;
    std::uint32_t state = goal_state;
    const std::size_t from_idx = flat(from);
    while (true) {
        const std::size_t idx = state / kDirCount;
        path.cells.push_back(Cell{idx % w, idx / w});
        if (idx == from_idx && arena.parent(state) == no_parent)
            break;
        state = arena.parent(state);
        requireInternal(state != no_parent, "broken A* parent chain");
    }
    std::reverse(path.cells.begin(), path.cells.end());
    for (const Cell &c : path.cells) {
        const std::int32_t owner = grid.owner(c);
        if (owner == net_id)
            continue;
        if (owner == RoutingGrid::kFree) {
            grid.setOwner(c, net_id);
            ++path.newCells;
        } else {
            path.crossovers.push_back(Crossover{c, net_id, owner});
        }
    }
    metrics::count("astar.paths_routed");
    metrics::count("astar.path_cells", path.cells.size());
    metrics::count("astar.crossovers", path.crossovers.size());
    return path;
}

} // namespace youtiao
