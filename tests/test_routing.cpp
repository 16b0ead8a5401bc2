#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <optional>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "chip/topology_builder.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/prng.hpp"
#include "core/baselines.hpp"
#include "core/youtiao.hpp"
#include "routing/astar_router.hpp"
#include "routing/chip_router.hpp"
#include "routing/corridor_router.hpp"
#include "routing/drc.hpp"

namespace youtiao {
namespace {

TEST(RoutingGrid, GeometryRoundTrip)
{
    const RoutingGridConfig config;
    RoutingGrid grid(Point{0, 0}, Point{3, 3}, config);
    // Cell (x, y) is centred at min - margin + (x, y) * cellMm.
    for (const Cell c : {Cell{0, 0}, Cell{50, 120},
                         Cell{grid.width() - 1, grid.height() - 1}}) {
        const Point centre{
            -config.marginMm + static_cast<double>(c.x) * config.cellMm,
            -config.marginMm + static_cast<double>(c.y) * config.cellMm};
        EXPECT_EQ(grid.cellAt(centre), c) << c.x << ", " << c.y;
    }
}

TEST(RoutingGrid, BlockAndClear)
{
    RoutingGrid grid(Point{0, 0}, Point{2, 2});
    grid.blockSquare(Point{1, 1}, 0.2);
    const Cell c = grid.cellAt(Point{1, 1});
    EXPECT_EQ(grid.owner(c), RoutingGrid::kObstacle);
    grid.clearSquare(Point{1, 1}, 0.2);
    EXPECT_EQ(grid.owner(c), RoutingGrid::kFree);
}

TEST(RoutingGrid, ClearOnlyRemovesObstacles)
{
    RoutingGrid grid(Point{0, 0}, Point{2, 2});
    const Cell c = grid.cellAt(Point{1, 1});
    grid.setOwner(c, 3);
    grid.clearSquare(Point{1, 1}, 0.1);
    EXPECT_EQ(grid.owner(c), 3);
}

TEST(AstarRouter, StateIndexGuardRejectsOversizedGrids)
{
    // The A* state index packs cell * 4 + direction into 32 bits; a
    // grid beyond that silently truncated the index and routed garbage.
    // It must fail loudly instead, before any search memory is touched.
    const std::size_t limit = astarMaxCells();
    EXPECT_LT(limit, std::size_t{1} << 31);
    EXPECT_GE(limit, (std::size_t{1} << 30) - 1);
    EXPECT_NO_THROW(requireAstarIndexable(1, limit));
    EXPECT_THROW(requireAstarIndexable(1, limit + 1), ConfigError);
    EXPECT_THROW(requireAstarIndexable(std::size_t{1} << 16,
                                       std::size_t{1} << 16),
                 ConfigError);
    // The width * height product overflowing std::size_t must not slip
    // through the guard either.
    const std::size_t huge = std::numeric_limits<std::size_t>::max();
    EXPECT_THROW(requireAstarIndexable(huge, huge), ConfigError);
    EXPECT_NO_THROW(requireAstarIndexable(1000, 1000));
    EXPECT_NO_THROW(requireAstarIndexable(0, huge));
}

TEST(AstarRouter, StraightLineRoute)
{
    RoutingGrid grid(Point{0, 0}, Point{5, 5});
    const Cell a = grid.cellAt(Point{0.5, 2.5});
    const Cell b = grid.cellAt(Point{4.5, 2.5});
    const auto path = routeAstar(grid, a, b, 0);
    ASSERT_TRUE(path.has_value());
    EXPECT_EQ(path->cells.front(), a);
    EXPECT_EQ(path->cells.back(), b);
    // Manhattan-optimal: newCells == |dx| + 1 along a straight line.
    EXPECT_EQ(path->newCells, b.x - a.x + 1);
}

TEST(AstarRouter, SharedArenaMatchesFreshBuffersExactly)
{
    // Property test: one SearchArena reused across many sequential
    // searches must reproduce the fresh-buffer overload exactly --
    // same paths, same costs, same claimed cells -- because stale
    // entries from earlier generations read back as "unvisited".
    auto make_grid = [] {
        RoutingGrid grid(Point{0, 0}, Point{8, 8});
        grid.blockSquare(Point{3, 3}, 0.8);
        grid.blockSquare(Point{5.5, 2}, 0.6);
        grid.blockSquare(Point{2, 6}, 1.0);
        return grid;
    };
    RoutingGrid fresh_grid = make_grid();
    RoutingGrid arena_grid = make_grid();
    SearchArena arena;

    const std::vector<std::pair<Point, Point>> nets = {
        {{0.5, 0.5}, {7.5, 7.5}}, {{0.5, 7.5}, {7.5, 0.5}},
        {{1.0, 4.0}, {7.0, 4.0}}, {{4.0, 0.5}, {4.0, 7.5}},
        {{0.5, 2.0}, {7.5, 6.0}}, {{6.5, 7.0}, {1.5, 1.0}},
    };
    for (std::size_t i = 0; i < nets.size(); ++i) {
        const auto net_id = static_cast<std::int32_t>(i + 1);
        const Cell from = fresh_grid.cellAt(nets[i].first);
        const Cell to = fresh_grid.cellAt(nets[i].second);
        const auto fresh = routeAstar(fresh_grid, from, to, net_id);
        const auto reused = routeAstar(arena_grid, from, to, net_id, arena);
        ASSERT_EQ(fresh.has_value(), reused.has_value()) << "net " << i;
        if (!fresh)
            continue;
        EXPECT_EQ(fresh->cells, reused->cells) << "net " << i;
        EXPECT_EQ(fresh->newCells, reused->newCells) << "net " << i;
        ASSERT_EQ(fresh->crossovers.size(), reused->crossovers.size());
        for (std::size_t k = 0; k < fresh->crossovers.size(); ++k) {
            EXPECT_EQ(fresh->crossovers[k].cell, reused->crossovers[k].cell);
            EXPECT_EQ(fresh->crossovers[k].byNet,
                      reused->crossovers[k].byNet);
            EXPECT_EQ(fresh->crossovers[k].overNet,
                      reused->crossovers[k].overNet);
        }
    }
    for (std::size_t y = 0; y < fresh_grid.height(); ++y)
        for (std::size_t x = 0; x < fresh_grid.width(); ++x) {
            const Cell c{x, y};
            ASSERT_EQ(fresh_grid.owner(c), arena_grid.owner(c))
                << "cell (" << x << ", " << y << ")";
        }
}

TEST(AstarRouter, RoutesAroundObstacle)
{
    RoutingGrid grid(Point{0, 0}, Point{5, 5});
    // Wall across the middle with a gap at the top.
    for (double y = 0.0; y <= 4.0; y += grid.cellMm() / 2)
        grid.blockSquare(Point{3.0, y}, 0.01);
    const Cell a = grid.cellAt(Point{1.0, 2.0});
    const Cell b = grid.cellAt(Point{5.0, 2.0});
    const auto path = routeAstar(grid, a, b, 1);
    ASSERT_TRUE(path.has_value());
    EXPECT_GT(path->newCells, grid.cellAt(Point{5.0, 2.0}).x -
                                  grid.cellAt(Point{1.0, 2.0}).x + 1);
}

TEST(AstarRouter, OtherNetCrossedViaAirbridge)
{
    RoutingGrid grid(Point{0, 0}, Point{2, 0.0});
    const Cell a = grid.cellAt(Point{0.0, 0.0});
    const Cell b = grid.cellAt(Point{2.0, 0.0});
    // Another net owns the full column between them (grid is a strip):
    // the route must hop it with exactly one perpendicular airbridge.
    for (std::size_t y = 0; y < grid.height(); ++y)
        grid.setOwner(Cell{grid.width() / 2, y}, 7);
    const auto path = routeAstar(grid, a, b, 1);
    ASSERT_TRUE(path.has_value());
    ASSERT_EQ(path->crossovers.size(), 1u);
    EXPECT_EQ(path->crossovers[0].overNet, 7);
    EXPECT_EQ(path->crossovers[0].byNet, 1);
    // The bridged cell keeps its original owner.
    EXPECT_EQ(grid.owner(path->crossovers[0].cell), 7);
}

TEST(AstarRouter, ObstacleWallStillBlocks)
{
    RoutingGrid grid(Point{0, 0}, Point{2, 0.0});
    const Cell a = grid.cellAt(Point{0.0, 0.0});
    const Cell b = grid.cellAt(Point{2.0, 0.0});
    for (std::size_t y = 0; y < grid.height(); ++y)
        grid.setOwner(Cell{grid.width() / 2, y}, RoutingGrid::kObstacle);
    EXPECT_FALSE(routeAstar(grid, a, b, 1).has_value());
}

TEST(AstarRouter, SameNetReuseCheap)
{
    RoutingGrid grid(Point{0, 0}, Point{4, 4});
    const Cell a = grid.cellAt(Point{0.0, 2.0});
    const Cell b = grid.cellAt(Point{4.0, 2.0});
    const auto trunk = routeAstar(grid, a, b, 0);
    ASSERT_TRUE(trunk.has_value());
    // Second terminal hooks onto the trunk: new metal is only the stub.
    const Cell t = grid.cellAt(Point{2.0, 3.0});
    const auto stub = routeAstar(grid, t, a, 0);
    ASSERT_TRUE(stub.has_value());
    EXPECT_LE(stub->newCells,
              grid.cellAt(Point{2.0, 3.0}).y - grid.cellAt(Point{2.0, 2.0}).y
                  + 1);
}

// Exactness: the search against a plain Dijkstra over (cell, incoming
// direction) that spells out the router's move rules in hundredths.

bool
plainFor(const RoutingGrid &grid, const Cell &c, std::int32_t net)
{
    const std::int32_t o = grid.owner(c);
    return o == RoutingGrid::kFree || o == net;
}

/** Cost of entering @p c on @p grid for @p net (c must not be an
 *  obstacle): 2 on own metal, 100 on free metal plus 25 next to an
 *  obstacle, 2500 to bridge foreign metal. */
std::int64_t
referenceStep(const RoutingGrid &grid, const Cell &c, std::int32_t net)
{
    const std::int32_t o = grid.owner(c);
    if (o == net)
        return 2;
    if (o != RoutingGrid::kFree)
        return 2500;
    constexpr long moves[4][2] = {{1, 0}, {-1, 0}, {0, 1}, {0, -1}};
    for (const auto &mv : moves) {
        const long ax = static_cast<long>(c.x) + mv[0];
        const long ay = static_cast<long>(c.y) + mv[1];
        if (ax >= 0 && ay >= 0 && ax < static_cast<long>(grid.width()) &&
            ay < static_cast<long>(grid.height()) &&
            grid.owner(Cell{static_cast<std::size_t>(ax),
                            static_cast<std::size_t>(ay)}) ==
                RoutingGrid::kObstacle)
            return 125;
    }
    return 100;
}

/** Cheapest path cost from @p from to @p to, or nullopt if none. */
std::optional<std::int64_t>
referenceCost(const RoutingGrid &grid, Cell from, Cell to,
              std::int32_t net)
{
    if (!plainFor(grid, from, net) || !plainFor(grid, to, net))
        return std::nullopt;
    constexpr long moves[4][2] = {{1, 0}, {-1, 0}, {0, 1}, {0, -1}};
    const std::size_t w = grid.width();
    const std::size_t h = grid.height();
    std::vector<std::int64_t> dist(w * h * 4,
                                   std::numeric_limits<std::int64_t>::max());
    using Entry = std::pair<std::int64_t, std::size_t>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> open;
    for (std::size_t d = 0; d < 4; ++d) {
        dist[(from.y * w + from.x) * 4 + d] = 0;
        open.emplace(0, (from.y * w + from.x) * 4 + d);
    }
    while (!open.empty()) {
        const auto [g, state] = open.top();
        open.pop();
        if (g > dist[state])
            continue;
        const Cell here{(state / 4) % w, (state / 4) / w};
        if (here == to)
            return g;
        const bool on_bridge = !plainFor(grid, here, net);
        for (std::size_t d = 0; d < 4; ++d) {
            if (on_bridge && d != state % 4)
                continue; // bridges run straight
            const long nx = static_cast<long>(here.x) + moves[d][0];
            const long ny = static_cast<long>(here.y) + moves[d][1];
            if (nx < 0 || ny < 0 || nx >= static_cast<long>(w) ||
                ny >= static_cast<long>(h))
                continue;
            const Cell next{static_cast<std::size_t>(nx),
                            static_cast<std::size_t>(ny)};
            if (grid.owner(next) == RoutingGrid::kObstacle)
                continue;
            const std::size_t ns = (next.y * w + next.x) * 4 + d;
            const std::int64_t cand = g + referenceStep(grid, next, net);
            if (cand < dist[ns]) {
                dist[ns] = cand;
                open.emplace(cand, ns);
            }
        }
    }
    return std::nullopt;
}

/** Random grid: obstacle squares, an obstacle ring, foreign-net lines. */
RoutingGrid
randomGrid(Prng &prng)
{
    RoutingGridConfig config;
    config.cellMm = 1.0;
    config.marginMm = 0.0;
    const int w = 4 + static_cast<int>(prng.uniformInt(25));
    const int h = 4 + static_cast<int>(prng.uniformInt(25));
    RoutingGrid grid(Point{0, 0}, Point{w - 1.0, h - 1.0}, config);
    auto cell = [&](int x, int y) {
        return Cell{static_cast<std::size_t>(x), static_cast<std::size_t>(y)};
    };
    for (int k = static_cast<int>(prng.uniformInt(7)); k > 0; --k) {
        const int side = 1 + static_cast<int>(prng.uniformInt(3));
        const int x0 = static_cast<int>(prng.uniformInt(w));
        const int y0 = static_cast<int>(prng.uniformInt(h));
        for (int y = y0; y < std::min(h, y0 + side); ++y)
            for (int x = x0; x < std::min(w, x0 + side); ++x)
                grid.setOwner(cell(x, y), RoutingGrid::kObstacle);
    }
    if (prng.bernoulli(0.3)) { // a walled room: targets inside it strand
        const int x0 = static_cast<int>(prng.uniformInt(w));
        const int y0 = static_cast<int>(prng.uniformInt(h));
        const int x1 = x0 + static_cast<int>(prng.uniformInt(w - x0));
        const int y1 = y0 + static_cast<int>(prng.uniformInt(h - y0));
        for (int x = x0; x <= x1; ++x) {
            grid.setOwner(cell(x, y0), RoutingGrid::kObstacle);
            grid.setOwner(cell(x, y1), RoutingGrid::kObstacle);
        }
        for (int y = y0; y <= y1; ++y) {
            grid.setOwner(cell(x0, y), RoutingGrid::kObstacle);
            grid.setOwner(cell(x1, y), RoutingGrid::kObstacle);
        }
    }
    for (int k = static_cast<int>(prng.uniformInt(9)); k > 0; --k) {
        const std::int32_t owner = 1 + static_cast<int>(prng.uniformInt(4));
        const bool across = prng.bernoulli(0.5);
        const int fixed = across ? static_cast<int>(prng.uniformInt(h))
                                 : static_cast<int>(prng.uniformInt(w));
        const int span = across ? w : h;
        const int a = static_cast<int>(prng.uniformInt(span));
        const int b = a + static_cast<int>(prng.uniformInt(span - a));
        for (int i = a; i <= b; ++i) {
            const Cell c = across ? cell(i, fixed) : cell(fixed, i);
            if (grid.owner(c) == RoutingGrid::kFree)
                grid.setOwner(c, owner);
        }
    }
    return grid;
}

/**
 * Check that @p path, found on @p before for @p net, runs from @p from to
 * @p to, is 4-adjacent, never enters an obstacle, runs straight across
 * foreign metal and reports its new cells; set @p cost to its cost under
 * referenceStep.
 */
void
checkLegalPath(const RoutingGrid &before, const RoutedPath &path,
               Cell from, Cell to, std::int32_t net,
               const std::string &where, std::int64_t &cost)
{
    const std::vector<Cell> &cells = path.cells;
    ASSERT_EQ(cells.front(), from) << where;
    ASSERT_EQ(cells.back(), to) << where;
    cost = 0;
    std::size_t fresh = 0;
    for (std::size_t i = 1; i < cells.size(); ++i) {
        const long dx = static_cast<long>(cells[i].x) -
                        static_cast<long>(cells[i - 1].x);
        const long dy = static_cast<long>(cells[i].y) -
                        static_cast<long>(cells[i - 1].y);
        ASSERT_EQ(std::labs(dx) + std::labs(dy), 1) << where;
        const std::int32_t o = before.owner(cells[i]);
        ASSERT_NE(o, RoutingGrid::kObstacle) << where;
        fresh += o == RoutingGrid::kFree ? 1 : 0;
        if (!plainFor(before, cells[i], net)) {
            ASSERT_LT(i + 1, cells.size()) << where;
            ASSERT_EQ(static_cast<long>(cells[i + 1].x) -
                          static_cast<long>(cells[i].x),
                      dx)
                << where << ": bridge turns";
            ASSERT_EQ(static_cast<long>(cells[i + 1].y) -
                          static_cast<long>(cells[i].y),
                      dy)
                << where << ": bridge turns";
        }
        cost += referenceStep(before, cells[i], net);
    }
    ASSERT_EQ(path.newCells, fresh) << where;
}

TEST(AstarRouter, MatchesDijkstraReferenceOnRandomGrids)
{
    // Every search must be exactly as cheap as the reference and return a
    // legal path: 4-adjacent, no obstacle, straight across foreign metal.
    // Net 0's trunk grows from one anchor by sequential searches, as the
    // chip router grows a net, so the trunk-aware heuristic is exercised
    // on every trunk shape the searches build. The tile router's
    // goal-directed search runs on a copy of each grid: same
    // reachability, a legal path, never cheaper than the reference.
    constexpr std::int32_t kNet = 0;
    SearchArena arena;
    GoalDirectedArena goal_directed_arena;
    std::size_t searches = 0;
    std::size_t stranded = 0;
    for (std::uint64_t seed = 0; seed < 300; ++seed) {
        Prng prng(seed);
        RoutingGrid grid = randomGrid(prng);
        const auto random_cell = [&] {
            return Cell{prng.uniformInt(grid.width()),
                        prng.uniformInt(grid.height())};
        };
        Cell anchor = random_cell();
        for (int tries = 0;
             tries < 50 && grid.owner(anchor) != RoutingGrid::kFree; ++tries)
            anchor = random_cell();
        if (grid.owner(anchor) != RoutingGrid::kFree)
            continue;
        grid.setOwner(anchor, kNet);
        std::vector<Cell> net_cells{anchor};
        // Every third grid takes the overload that scans for the trunk.
        const bool scan = seed % 3 == 0;
        for (int k = 5 + static_cast<int>(prng.uniformInt(21)); k > 0; --k) {
            const Cell target = random_cell();
            const RoutingGrid before = grid;
            const std::optional<std::int64_t> want =
                referenceCost(before, anchor, target, kNet);
            const std::optional<RoutedPath> got =
                scan ? routeAstar(grid, anchor, target, kNet, arena)
                     : routeAstar(grid, anchor, target, kNet, arena,
                                  net_cells);
            ++searches;
            const std::string where =
                "seed " + std::to_string(seed) + " target (" +
                std::to_string(target.x) + ", " + std::to_string(target.y) +
                ")";
            ASSERT_EQ(want.has_value(), got.has_value()) << where;
            RoutingGrid probe = before;
            const std::optional<RoutedPath> directed = routeAstarGoalDirected(
                probe, anchor, target, kNet, goal_directed_arena);
            ASSERT_EQ(want.has_value(), directed.has_value()) << where;
            if (!got) {
                stranded += plainFor(before, target, kNet) ? 1 : 0;
                continue;
            }
            std::int64_t cost = 0;
            ASSERT_NO_FATAL_FAILURE(checkLegalPath(before, *got, anchor,
                                                   target, kNet, where, cost));
            ASSERT_EQ(cost, *want) << where;
            ASSERT_NO_FATAL_FAILURE(checkLegalPath(before, *directed, anchor,
                                                   target, kNet,
                                                   where + " goal-directed",
                                                   cost));
            ASSERT_GE(cost, *want) << where << " goal-directed";
        }
    }
    EXPECT_GT(searches, 2000u);
    EXPECT_GT(stranded, 0u) << "no search met an unreachable plain target";
}

TEST(AstarRouter, NegativeNetIdThrows)
{
    RoutingGrid grid(Point{0, 0}, Point{1, 1});
    EXPECT_THROW(routeAstar(grid, Cell{0, 0}, Cell{1, 1}, -1),
                 ConfigError);
}

TEST(ChipRouter, RoutesGoogleWiringOnSquareChip)
{
    const ChipTopology chip = makeSquare();
    const BaselineDesign google = designGoogleWiring(chip);
    const auto nets = buildWiringNets(chip, google.xyPlan, google.zPlan,
                                      google.readoutPlan);
    const ChipRoutingResult result = routeChip(chip, nets);
    EXPECT_EQ(result.failedConnections, 0u);
    EXPECT_GT(result.totalLengthMm, 0.0);
    EXPECT_GT(result.routingAreaMm2, 0.0);
    EXPECT_EQ(result.interfaceCount, nets.size());
}

TEST(ChipRouter, RoutedGridPassesDrc)
{
    const ChipTopology chip = makeSquare();
    const BaselineDesign google = designGoogleWiring(chip);
    const auto nets = buildWiringNets(chip, google.xyPlan, google.zPlan,
                                      google.readoutPlan);
    const ChipRoutingResult result = routeChip(chip, nets);
    ASSERT_TRUE(result.grid.has_value());
    const DrcReport report =
        checkRoutingDrc(*result.grid, nets.size(), result.crossovers);
    EXPECT_TRUE(report.clean) << (report.violations.empty()
                                      ? ""
                                      : report.violations.front());
}

TEST(ChipRouter, YoutiaoUsesFewerInterfacesAndLessArea)
{
    const ChipTopology chip = makeSquare();
    Prng prng(5);
    const ChipCharacterization data = characterizeChip(chip, prng);
    YoutiaoConfig config;
    config.fit.forest.treeCount = 10;
    const YoutiaoDesigner designer(config);
    const YoutiaoDesign ours = designer.design(chip, data);
    const BaselineDesign google = designGoogleWiring(chip);

    const auto our_nets = buildWiringNets(chip, ours.xyPlan, ours.zPlan,
                                          ours.readoutPlan);
    const auto google_nets = buildWiringNets(chip, google.xyPlan,
                                             google.zPlan,
                                             google.readoutPlan);
    const ChipRoutingResult our_route = routeChip(chip, our_nets);
    const ChipRoutingResult google_route = routeChip(chip, google_nets);
    EXPECT_LT(our_route.interfaceCount, google_route.interfaceCount);
    EXPECT_LT(our_route.routingAreaMm2, google_route.routingAreaMm2);
    EXPECT_EQ(our_route.failedConnections, 0u);
}

TEST(ChipRouter, EmptyNetListThrows)
{
    const ChipTopology chip = makeSquare();
    EXPECT_THROW(routeChip(chip, {}), ConfigError);
}

TEST(Drc, DetectsFragmentedNet)
{
    RoutingGrid grid(Point{0, 0}, Point{2, 2});
    grid.setOwner(Cell{0, 0}, 0);
    grid.setOwner(Cell{5, 5}, 0); // disconnected piece of net 0
    const DrcReport report = checkRoutingDrc(grid, 1);
    EXPECT_FALSE(report.clean);
    EXPECT_FALSE(report.violations.empty());
}

TEST(Drc, CleanGridPasses)
{
    RoutingGrid grid(Point{0, 0}, Point{2, 2});
    grid.setOwner(Cell{0, 0}, 0);
    grid.setOwner(Cell{1, 0}, 0);
    const DrcReport report = checkRoutingDrc(grid, 1);
    EXPECT_TRUE(report.clean);
}

TEST(Drc, UnknownOwnerFlagged)
{
    RoutingGrid grid(Point{0, 0}, Point{1, 1});
    grid.setOwner(Cell{0, 0}, 9);
    const DrcReport report = checkRoutingDrc(grid, 1);
    EXPECT_FALSE(report.clean);
}

} // namespace
} // namespace youtiao

// -- whole-chip routing across every topology family ----------------------

namespace youtiao {
namespace {

class RouteEveryTopology
    : public ::testing::TestWithParam<TopologyFamily>
{};

TEST_P(RouteEveryTopology, GoogleWiringRoutesClean)
{
    const ChipTopology chip = makeTopology(GetParam());
    const BaselineDesign design = designGoogleWiring(chip);
    ChipRoutingConfig config;
    config.grid.marginMm = 1.5; // small margin keeps the test fast
    const auto nets = buildWiringNets(chip, design.xyPlan, design.zPlan,
                                      design.readoutPlan, config);
    const ChipRoutingResult result = routeChip(chip, nets, config);
    EXPECT_EQ(result.failedConnections, 0u)
        << topologyFamilyName(GetParam());
    ASSERT_TRUE(result.grid.has_value());
    const DrcReport report =
        checkRoutingDrc(*result.grid, nets.size(), result.crossovers);
    EXPECT_TRUE(report.clean)
        << topologyFamilyName(GetParam()) << ": "
        << (report.violations.empty() ? "" : report.violations.front());
}

INSTANTIATE_TEST_SUITE_P(Families, RouteEveryTopology,
                         ::testing::Values(TopologyFamily::Square,
                                           TopologyFamily::Hexagon,
                                           TopologyFamily::HeavySquare,
                                           TopologyFamily::HeavyHexagon,
                                           TopologyFamily::LowDensity));

TEST(ChipRouterExtra, CrossoversReportedAndDeduplicated)
{
    const ChipTopology chip = makeSquare();
    const BaselineDesign design = designGoogleWiring(chip);
    const auto nets = buildWiringNets(chip, design.xyPlan, design.zPlan,
                                      design.readoutPlan);
    const ChipRoutingResult result = routeChip(chip, nets);
    for (std::size_t a = 0; a < result.crossovers.size(); ++a) {
        const Crossover &x = result.crossovers[a];
        EXPECT_NE(x.byNet, x.overNet);
        // The bridged cell still belongs to the net below.
        ASSERT_TRUE(result.grid.has_value());
        EXPECT_EQ(result.grid->owner(x.cell), x.overNet);
        for (std::size_t b = a + 1; b < result.crossovers.size(); ++b) {
            const Crossover &y = result.crossovers[b];
            EXPECT_FALSE(x.cell == y.cell && x.byNet == y.byNet)
                << "duplicate crossover record";
        }
    }
}

TEST(ChipRouterExtra, DenseChipShrinksInterfacePitch)
{
    // A 5x5 grid's Google wiring needs more interfaces than 0.5 mm pads
    // fit on the perimeter; the router must shrink the pitch, not throw.
    const ChipTopology chip = makeSquareGrid(5, 5);
    const BaselineDesign design = designGoogleWiring(chip);
    ChipRoutingConfig config;
    config.grid.marginMm = 1.0;
    const auto nets = buildWiringNets(chip, design.xyPlan, design.zPlan,
                                      design.readoutPlan, config);
    const ChipRoutingResult result = routeChip(chip, nets, config);
    EXPECT_EQ(result.interfaceCount, nets.size());
    EXPECT_LE(result.failedConnections, 1u);
}

TEST(ChipRouterExtra, PinPortsAvoidNeighbourPads)
{
    // Heavy-square midpoint qubits crowd their east/west ports; every
    // generated pin must sit outside every other device's keep-out.
    const ChipTopology chip = makeHeavySquare();
    const BaselineDesign design = designGoogleWiring(chip);
    ChipRoutingConfig config;
    const auto nets = buildWiringNets(chip, design.xyPlan, design.zPlan,
                                      design.readoutPlan, config);
    for (const NetSpec &net : nets) {
        for (const Point &pin : net.terminals) {
            for (std::size_t d = 0; d < chip.deviceCount(); ++d) {
                // Keep-out pad half-width: 0.30 mm per qubit, half
                // that per coupler.
                const double pad =
                    (chip.deviceKind(d) == DeviceKind::Qubit ? 1.0
                                                             : 0.5) *
                    0.30;
                const Point o = chip.devicePosition(d);
                const bool inside =
                    std::abs(pin.x - o.x) < pad - 1e-9 &&
                    std::abs(pin.y - o.y) < pad - 1e-9;
                EXPECT_FALSE(inside)
                    << "pin (" << pin.x << "," << pin.y
                    << ") inside device " << d << " keep-out";
            }
        }
    }
}

TEST(ChipRouterExtra, RoutingAreaEqualsLengthTimesPitch)
{
    const ChipTopology chip = makeSquare();
    const BaselineDesign design = designGoogleWiring(chip);
    ChipRoutingConfig config;
    const auto nets = buildWiringNets(chip, design.xyPlan, design.zPlan,
                                      design.readoutPlan, config);
    const ChipRoutingResult result = routeChip(chip, nets, config);
    EXPECT_NEAR(result.routingAreaMm2,
                result.totalLengthMm * config.grid.cellMm, 1e-9);
}

} // namespace
} // namespace youtiao

// -- corridor routing between tiles ---------------------------------------

namespace youtiao {
namespace {

/** Nets crossing each segment, as the sparse search kept them. */
using SparseUsage = std::unordered_map<std::uint64_t, std::uint32_t>;

double
sparseCost(const CorridorLattice &lattice, std::uint64_t id,
           const SparseUsage &usage)
{
    double factor = 1.0;
    const auto it = usage.find(id);
    if (it != usage.end())
        factor += 4.0 * static_cast<double>(it->second) / 32.0;
    return lattice.segmentLengthMm(id) * factor;
}

/** The sparse search routeCorridors replaced, kept as the oracle: a
 *  Dijkstra over hash maps with the same (cost, id) queue, stale-entry
 *  test, strict relaxation and cost expression. */
CorridorPath
sparseToBoundary(const CorridorLattice &lattice, std::uint64_t from,
                 const SparseUsage &usage, std::uint64_t &expanded)
{
    std::unordered_map<std::uint64_t, double> g;
    std::unordered_map<std::uint64_t, std::uint64_t> parent;
    using Entry = std::pair<double, std::uint64_t>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> open;
    g[from] = sparseCost(lattice, from, usage);
    open.emplace(g[from], from);
    std::optional<std::uint64_t> goal;
    while (!open.empty()) {
        const auto [cost, id] = open.top();
        open.pop();
        const auto gi = g.find(id);
        if (gi == g.end() || cost > gi->second)
            continue;
        ++expanded;
        if (lattice.isBoundary(id)) {
            goal = id;
            break;
        }
        for (std::uint64_t next : lattice.adjacentSegments(id)) {
            const double cand = cost + sparseCost(lattice, next, usage);
            const auto it = g.find(next);
            if (it == g.end() || cand < it->second) {
                g[next] = cand;
                parent[next] = id;
                open.emplace(cand, next);
            }
        }
    }
    CorridorPath path;
    if (!goal.has_value())
        return path;
    for (std::uint64_t at = *goal;;) {
        path.segments.push_back(at);
        path.lengthMm += lattice.segmentLengthMm(at);
        const auto it = parent.find(at);
        if (it == parent.end())
            break;
        at = it->second;
    }
    std::reverse(path.segments.begin(), path.segments.end());
    return path;
}

std::uint64_t
segmentsExpanded()
{
    return metrics::Registry::global()
        .counters()["corridor.segments_expanded"];
}

/** @p tiles + 1 ascending cuts from 0: steps of @p pitch, or seeded
 *  steps in [0.5, 3) mm when @p pitch is 0. */
std::vector<double>
corridorCuts(std::size_t tiles, double pitch, Prng &prng)
{
    std::vector<double> cuts(tiles + 1, 0.0);
    for (std::size_t i = 1; i <= tiles; ++i)
        cuts[i] = pitch > 0.0 ? pitch * static_cast<double>(i)
                              : cuts[i - 1] + prng.uniform(0.5, 3.0);
    return cuts;
}

/** @p nets entries, each the segment nearest a seeded point of a seeded
 *  tile, as routeHierarchical places a tile net's entry. */
std::vector<std::uint64_t>
corridorEntries(const CorridorLattice &lattice, std::size_t nets,
                Prng &prng)
{
    std::vector<std::uint64_t> entries;
    for (std::size_t n = 0; n < nets; ++n) {
        const std::size_t ix = prng.uniformInt(lattice.tilesX());
        const std::size_t iy = prng.uniformInt(lattice.tilesY());
        const double x =
            prng.uniform(lattice.xCutsMm[ix], lattice.xCutsMm[ix + 1]);
        const double y =
            prng.uniform(lattice.yCutsMm[iy], lattice.yCutsMm[iy + 1]);
        entries.push_back(lattice.entrySegmentForTile(ix, iy, Point{x, y}));
    }
    return entries;
}

TEST(CorridorRouter, MatchesSparseReferenceExactly)
{
    struct Case
    {
        std::size_t tilesX, tilesY;
        double pitch; // 0 = seeded uneven cuts
        std::size_t nets;
        std::uint64_t seed;
    };
    // The 10k-qubit chip's 13x13 lattice on equal cuts (every tie
    // breaks on the id), a non-square lattice on uneven cuts, and one
    // tile, whose four segments are all on the boundary.
    const Case cases[] = {{13, 13, 4.0, 2000, 1},
                          {11, 4, 0.0, 1200, 2},
                          {1, 1, 0.0, 50, 3}};
    for (const Case &c : cases) {
        SCOPED_TRACE(std::to_string(c.tilesX) + "x" +
                     std::to_string(c.tilesY));
        Prng prng(c.seed);
        const CorridorLattice lattice =
            makeCorridorLattice(corridorCuts(c.tilesX, c.pitch, prng),
                                corridorCuts(c.tilesY, c.pitch, prng));
        const std::vector<std::uint64_t> entries =
            corridorEntries(lattice, c.nets, prng);

        const std::uint64_t before = segmentsExpanded();
        const CorridorResult dense = routeCorridors(lattice, entries);
        const std::uint64_t dense_expanded = segmentsExpanded() - before;

        SparseUsage usage;
        std::size_t max_usage = 0;
        std::uint64_t expanded = 0;
        std::size_t rerouted = 0;
        ASSERT_EQ(dense.paths.size(), entries.size());
        for (std::size_t n = 0; n < entries.size(); ++n) {
            const CorridorPath path =
                sparseToBoundary(lattice, entries[n], usage, expanded);
            std::uint64_t unused = 0;
            if (sparseToBoundary(lattice, entries[n], {}, unused)
                    .segments != path.segments)
                ++rerouted;
            ASSERT_EQ(dense.paths[n].segments, path.segments)
                << "net " << n;
            ASSERT_EQ(dense.paths[n].lengthMm, path.lengthMm)
                << "net " << n;
            for (std::uint64_t id : path.segments)
                max_usage = std::max<std::size_t>(max_usage, ++usage[id]);
        }
        ASSERT_EQ(dense.usage.size(), lattice.segmentCount());
        for (std::uint64_t id = 0; id < lattice.segmentCount(); ++id) {
            const auto it = usage.find(id);
            EXPECT_EQ(dense.usage[id], it == usage.end() ? 0u : it->second)
                << "segment " << id;
        }
        EXPECT_EQ(dense.maxSegmentUsage, max_usage);
        EXPECT_EQ(dense.maxCorridorWidthMm,
                  static_cast<double>(max_usage) * 0.03);
        EXPECT_EQ(dense.failedNets, 0u);
        EXPECT_EQ(dense_expanded, expanded);
        EXPECT_TRUE(checkCorridorDrc(lattice, dense, entries).clean);
        if (c.tilesX > 1) {
            EXPECT_GT(rerouted, 0u) << "congestion never moved a path";
        }
    }
}

TEST(CorridorLattice, StateBudgetRefusesBeforeAllocating)
{
    // 100,000 x 100,000 tiles (6.4e11 qubits at 64 per tile) has 2e10
    // segments: its search state is refused before it is allocated.
    std::vector<double> cuts(100001);
    for (std::size_t i = 0; i < cuts.size(); ++i)
        cuts[i] = static_cast<double>(i);
    const CorridorLattice huge = makeCorridorLattice(cuts, cuts);
    try {
        (void)routeCorridors(huge, {0});
        FAIL() << "a lattice over the state budget routed";
    } catch (const ConfigError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("budget of " +
                            std::to_string(kCorridorStateBudgetBytes)),
                  std::string::npos)
            << what;
    }

    // The 100k-qubit chip's 40 x 40 lattice routes a net from every
    // segment.
    cuts.resize(41);
    const CorridorLattice chip = makeCorridorLattice(cuts, cuts);
    ASSERT_EQ(chip.segmentCount(), 3280u);
    std::vector<std::uint64_t> entries(chip.segmentCount());
    for (std::uint64_t id = 0; id < entries.size(); ++id)
        entries[id] = id;
    const CorridorResult result = routeCorridors(chip, entries);
    EXPECT_EQ(result.failedNets, 0u);
    EXPECT_TRUE(checkCorridorDrc(chip, result, entries).clean);
}

TEST(CorridorDrc, ReportsAnInvalidSegmentId)
{
    const CorridorLattice lattice =
        makeCorridorLattice({0.0, 1.0, 2.0}, {0.0, 1.0, 2.0});
    // The east side of tile (0, 0) is interior: a two-segment path.
    const std::vector<std::uint64_t> entries = {
        lattice.entrySegmentForTile(0, 0, Point{1.0, 0.5})};
    CorridorResult result = routeCorridors(lattice, entries);
    ASSERT_TRUE(checkCorridorDrc(lattice, result, entries).clean);

    result.paths[0].segments.push_back(999);
    CorridorDrcReport drc;
    ASSERT_NO_THROW(drc = checkCorridorDrc(lattice, result, entries));
    EXPECT_FALSE(drc.clean);
    EXPECT_EQ(drc.violations,
              std::vector<std::string>{
                  "net 0: references an invalid segment id"});
}

} // namespace
} // namespace youtiao
