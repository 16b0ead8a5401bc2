#include "routing/astar_router.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <queue>
#include <utility>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"

namespace youtiao {

namespace {

// Step costs in hundredths of a new-metal step, charged for the cell
// entered.
constexpr std::int64_t kReuse = 2;      // trunk reuse is nearly free
constexpr std::int64_t kNewMetal = 100; // free cell
constexpr std::int64_t kCrowding = 25;  // extra next to an obstacle
constexpr std::int64_t kBridge = 2500;  // >> new metal: bridges are rare

constexpr std::size_t kMaxCells = (std::size_t{1} << 30) - 1;

// g and f are 64-bit. A cheapest path enters each plain cell once and each
// foreign cell at most twice (once per axis), so even at the largest grid
// its cost stays far from wrapping.
static_assert(2 * kBridge * static_cast<std::int64_t>(kMaxCells) <
                  std::numeric_limits<std::int64_t>::max() / 2,
              "A* path costs must fit 64-bit g");

constexpr long kMoves[4][2] = {{1, 0}, {-1, 0}, {0, 1}, {0, -1}};

long
manhattan(const Cell &a, const Cell &b)
{
    return std::labs(static_cast<long>(a.x) - static_cast<long>(b.x)) +
           std::labs(static_cast<long>(a.y) - static_cast<long>(b.y));
}

/**
 * Record a search's metrics and, when it found @p cells (from start to
 * goal), claim the free ones for @p net_id, appending them to
 * @p net_cells when given. Empty @p cells means the search failed.
 */
std::optional<RoutedPath>
finishSearch(RoutingGrid &grid, std::int32_t net_id, std::size_t expanded,
             std::vector<Cell> cells, std::vector<Cell> *net_cells)
{
    metrics::count("astar.cells_expanded", expanded);
    metrics::observe("astar.cells_expanded",
                     static_cast<double>(expanded));
    trace::counter("astar.cells_expanded",
                   static_cast<double>(expanded), "routing");
    if (cells.empty()) {
        metrics::count("astar.failed_routes");
        trace::instant("astar.failed_route", "routing");
        return std::nullopt;
    }
    RoutedPath path;
    path.cells = std::move(cells);
    for (const Cell &c : path.cells) {
        const std::int32_t o = grid.owner(c);
        if (o == net_id)
            continue;
        if (o == RoutingGrid::kFree) {
            grid.setOwner(c, net_id);
            if (net_cells != nullptr)
                net_cells->push_back(c);
            ++path.newCells;
        } else {
            path.crossovers.push_back(Crossover{c, net_id, o});
        }
    }
    metrics::count("astar.paths_routed");
    metrics::count("astar.path_cells", path.cells.size());
    metrics::count("astar.crossovers", path.crossovers.size());
    return path;
}

} // namespace

std::pair<std::uint64_t, std::uint32_t>
SearchArena::MonotoneQueue::pop()
{
    if (buckets_[0].empty()) {
        std::size_t b = 1;
        while (buckets_[b].empty())
            ++b;
        std::uint64_t least = buckets_[b].front().key;
        for (const Entry &e : buckets_[b])
            least = std::min(least, e.key);
        last_ = least;
        // Every entry of bucket b lands in a lower bucket now.
        for (const Entry &e : buckets_[b])
            buckets_[bucketOf(e.key)].push_back(e);
        buckets_[b].clear();
    }
    const Entry e = buckets_[0].back();
    buckets_[0].pop_back();
    --size_;
    return {e.key, e.cell};
}

void
SearchArena::MonotoneQueue::clear()
{
    for (std::vector<Entry> &bucket : buckets_)
        bucket.clear();
    last_ = 0;
    size_ = 0;
}

std::size_t
astarMaxCells()
{
    return kMaxCells;
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
routeAstar(RoutingGrid &grid, Cell from, Cell to, std::int32_t net_id)
{
    SearchArena arena;
    return routeAstar(grid, from, to, net_id, arena);
}

std::optional<RoutedPath>
routeAstar(RoutingGrid &grid, Cell from, Cell to, std::int32_t net_id,
           SearchArena &arena)
{
    std::vector<Cell> net_cells;
    const std::vector<std::int32_t> &owners = grid.owners();
    for (std::size_t i = 0; i < owners.size(); ++i) {
        if (owners[i] == net_id)
            net_cells.push_back(Cell{i % grid.width(), i / grid.width()});
    }
    return routeAstar(grid, from, to, net_id, arena, net_cells);
}

std::optional<RoutedPath>
routeAstar(RoutingGrid &grid, Cell from, Cell to, std::int32_t net_id,
           SearchArena &arena, std::vector<Cell> &net_cells)
{
    requireConfig(net_id >= 0, "net id must be non-negative");
    const std::size_t w = grid.width();
    const std::size_t h = grid.height();
    requireAstarIndexable(w, h);
    const auto plain = [net_id](std::int32_t o) {
        return o == RoutingGrid::kFree || o == net_id;
    };
    // Endpoints must be plain cells; a bridge cannot start or end a path.
    if (!plain(grid.owner(from)) || !plain(grid.owner(to)))
        return std::nullopt;

    // One state per cell: the arena holds g and parent, and begin()
    // invalidates the previous search in O(1) instead of refilling O(cells)
    // memory.
    arena.begin(w * h);
    const std::int32_t *owner = grid.owners().data();
    const long width = static_cast<long>(w);
    const long height = static_cast<long>(h);

    // Trunk-aware heuristic (see the file comment). D* starts at w + h,
    // which no Manhattan distance reaches, so with no own metal h = M.
    long d_star = width + height;
    for (const Cell &c : net_cells)
        d_star = std::min(d_star, manhattan(c, to));
    const long tx = static_cast<long>(to.x);
    const long ty = static_cast<long>(to.y);
    const auto heuristic = [&](long x, long y) {
        const std::int64_t m = std::labs(x - tx) + std::labs(y - ty);
        return std::min(kNewMetal * m,
                        kReuse * m + (kNewMetal - kReuse) * d_star);
    };
    const auto crowded = [&](long x, long y) {
        const long i = y * width + x;
        return (x > 0 && owner[i - 1] == RoutingGrid::kObstacle) ||
               (x + 1 < width && owner[i + 1] == RoutingGrid::kObstacle) ||
               (y > 0 && owner[i - width] == RoutingGrid::kObstacle) ||
               (y + 1 < height &&
                owner[i + width] == RoutingGrid::kObstacle);
    };

    const std::size_t from_idx = from.y * w + from.x;
    const std::size_t to_idx = to.y * w + to.x;
    SearchArena::MonotoneQueue &open = arena.queue();
    arena.relax(from_idx, 0, SearchArena::kNoParent);
    open.push(static_cast<std::uint64_t>(heuristic(
                  static_cast<long>(from.x), static_cast<long>(from.y))),
              static_cast<std::uint32_t>(from_idx));

    bool found = false;
    std::size_t expanded = 0;
    while (!open.empty()) {
        const auto [f, idx] = open.pop();
        const long x = static_cast<long>(idx % w);
        const long y = static_cast<long>(idx / w);
        const std::int64_t g = arena.g(idx);
        // A later push found a cheaper g; this entry is superseded.
        if (static_cast<std::int64_t>(f) != g + heuristic(x, y))
            continue;
        ++expanded;
        // Strided: the branch in poll() is one relaxed load, but even
        // that is kept off the per-expansion critical path.
        if ((expanded & 0xFFF) == 0)
            cancel::poll("astar");
        if (idx == to_idx) {
            found = true;
            break;
        }
        for (const auto &mv : kMoves) {
            // A straight run across foreign metal is one move, bridging
            // each foreign cell, to the first plain cell beyond it. It is
            // illegal if the run ends at an obstacle or the grid edge.
            long nx = x + mv[0];
            long ny = y + mv[1];
            std::int64_t step = 0;
            bool landed = false;
            while (nx >= 0 && ny >= 0 && nx < width && ny < height) {
                const std::int32_t o = owner[ny * width + nx];
                if (o == RoutingGrid::kObstacle)
                    break;
                if (o == net_id) {
                    step += kReuse;
                    landed = true;
                    break;
                }
                if (o == RoutingGrid::kFree) {
                    // Crowding: staying off pad walls keeps alleys open.
                    step += kNewMetal + (crowded(nx, ny) ? kCrowding : 0);
                    landed = true;
                    break;
                }
                step += kBridge;
                nx += mv[0];
                ny += mv[1];
            }
            if (!landed)
                continue;
            const auto next = static_cast<std::size_t>(ny * width + nx);
            const std::int64_t cand = g + step;
            if (cand < arena.g(next)) {
                arena.relax(next, cand, idx);
                open.push(static_cast<std::uint64_t>(
                              cand + heuristic(nx, ny)),
                          static_cast<std::uint32_t>(next));
            }
        }
    }
    // Walk the parents back from the goal. A cell and its parent are
    // either adjacent or the two ends of a bridge run, whose bridged
    // cells lie on the straight line between them.
    std::vector<Cell> cells;
    for (std::size_t idx = to_idx; found; idx = arena.parent(idx)) {
        const long x = static_cast<long>(idx % w);
        const long y = static_cast<long>(idx / w);
        cells.push_back(Cell{idx % w, idx / w});
        const std::uint32_t parent = arena.parent(idx);
        if (parent == SearchArena::kNoParent) {
            requireInternal(idx == from_idx, "broken A* parent chain");
            break;
        }
        const long px = static_cast<long>(parent % w);
        const long py = static_cast<long>(parent / w);
        requireInternal(px == x || py == y, "broken A* bridge run");
        const long sx = (px > x) - (px < x);
        const long sy = (py > y) - (py < y);
        for (long bx = x + sx, by = y + sy; bx != px || by != py;
             bx += sx, by += sy)
            cells.push_back(Cell{static_cast<std::size_t>(bx),
                                 static_cast<std::size_t>(by)});
    }
    std::reverse(cells.begin(), cells.end());
    return finishSearch(grid, net_id, expanded, std::move(cells),
                        &net_cells);
}

std::optional<RoutedPath>
routeAstarGoalDirected(RoutingGrid &grid, Cell from, Cell to,
                       std::int32_t net_id, GoalDirectedArena &arena)
{
    requireConfig(net_id >= 0, "net id must be non-negative");
    const std::size_t w = grid.width();
    const std::size_t h = grid.height();
    requireAstarIndexable(w, h);
    constexpr std::size_t kDirCount = GoalDirectedArena::kStatesPerCell;
    auto flat = [w](const Cell &c) { return c.y * w + c.x; };
    // Twice the new-metal step per Manhattan cell: inconsistent, so the
    // search is strongly goal-directed and may under-reuse trunks.
    constexpr double kGoalWeight = 2.0;
    auto heuristic = [&to](const Cell &c) {
        const double dx = c.x > to.x ? static_cast<double>(c.x - to.x)
                                     : static_cast<double>(to.x - c.x);
        const double dy = c.y > to.y ? static_cast<double>(c.y - to.y)
                                     : static_cast<double>(to.y - c.y);
        return kGoalWeight * (dx + dy);
    };
    // The shared step costs in new-metal steps, as doubles.
    constexpr double kHundredths = 100.0;

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
    arena.begin(w * h * kDirCount);
    constexpr std::uint32_t no_parent = GoalDirectedArena::kNoParent;

    using Entry = std::pair<double, std::uint32_t>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> open;
    // Seed: leaving the start cell in any direction.
    for (std::size_t d = 0; d < kDirCount; ++d) {
        const std::size_t s = flat(from) * kDirCount + d;
        arena.relax(s, 0.0, no_parent);
        open.emplace(heuristic(from), static_cast<std::uint32_t>(s));
    }

    std::uint32_t goal_state = no_parent;
    std::size_t expanded = 0;
    while (!open.empty()) {
        const std::uint32_t state = open.top().second;
        open.pop();
        if (arena.closed(state))
            continue;
        arena.close(state);
        ++expanded;
        // Strided: the branch in poll() is one relaxed load, but even
        // that is kept off the per-expansion critical path.
        if ((expanded & 0xFFF) == 0)
            cancel::poll("astar");
        const std::size_t idx = state / kDirCount;
        const std::size_t dir_in = state % kDirCount;
        const Cell here{idx % w, idx / w};
        if (here == to) {
            goal_state = state;
            break;
        }
        const bool on_bridge = !mine_or_free(here);
        for (std::size_t d = 0; d < kDirCount; ++d) {
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
            double step;
            if (owner == net_id) {
                step = kReuse / kHundredths;
            } else if (owner == RoutingGrid::kFree) {
                step = kNewMetal / kHundredths;
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
                        step += kCrowding / kHundredths;
                        break;
                    }
                }
            } else {
                step = kBridge / kHundredths; // airbridge crossover
            }
            const std::size_t nstate = flat(next) * kDirCount + d;
            const double cand = arena.g(state) + step;
            if (!arena.closed(nstate) && cand < arena.g(nstate)) {
                arena.relax(nstate, cand, state);
                open.emplace(cand + heuristic(next),
                             static_cast<std::uint32_t>(nstate));
            }
        }
    }

    std::vector<Cell> cells;
    if (goal_state != no_parent) {
        std::uint32_t state = goal_state;
        const std::size_t from_idx = flat(from);
        while (true) {
            const std::size_t idx = state / kDirCount;
            cells.push_back(Cell{idx % w, idx / w});
            if (idx == from_idx && arena.parent(state) == no_parent)
                break;
            state = arena.parent(state);
            requireInternal(state != no_parent, "broken A* parent chain");
        }
        std::reverse(cells.begin(), cells.end());
    }
    return finishSearch(grid, net_id, expanded, std::move(cells), nullptr);
}

} // namespace youtiao
