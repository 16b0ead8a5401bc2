#include "routing/chip_router.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "routing/astar_router.hpp"

namespace youtiao {

namespace {

/** Obstacle pad halfwidth around each qubit (mm); Xmon ~0.65 wide.
 *  Couplers keep half of it. */
constexpr double kDevicePadMm = 0.30;

/** Centroid of a net's terminals. */
Point
centroid(const NetSpec &net)
{
    Point c{0.0, 0.0};
    for (const Point &t : net.terminals) {
        c.x += t.x;
        c.y += t.y;
    }
    const auto n = static_cast<double>(net.terminals.size());
    return Point{c.x / n, c.y / n};
}

/**
 * Perimeter interface slots: points every @p spacing mm along the grid
 * boundary rectangle (one cell inside the edge).
 */
std::vector<Point>
perimeterSlots(const Point &lo, const Point &hi, double spacing)
{
    std::vector<Point> slots;
    for (double x = lo.x; x <= hi.x; x += spacing) {
        slots.push_back(Point{x, lo.y});
        slots.push_back(Point{x, hi.y});
    }
    for (double y = lo.y + spacing; y < hi.y; y += spacing) {
        slots.push_back(Point{lo.x, y});
        slots.push_back(Point{hi.x, y});
    }
    return slots;
}

/** Corners of the box around every device and pin: the routing grid
 *  covers it plus the margin. */
std::pair<Point, Point>
deviceAndPinBox(const ChipTopology &chip, const std::vector<NetSpec> &nets)
{
    Point lo{std::numeric_limits<double>::infinity(),
             std::numeric_limits<double>::infinity()};
    Point hi{-std::numeric_limits<double>::infinity(),
             -std::numeric_limits<double>::infinity()};
    auto fold = [&](const Point &p) {
        lo.x = std::min(lo.x, p.x);
        lo.y = std::min(lo.y, p.y);
        hi.x = std::max(hi.x, p.x);
        hi.y = std::max(hi.y, p.y);
    };
    for (const QubitInfo &q : chip.qubits())
        fold(q.position);
    for (const CouplerInfo &c : chip.couplers())
        fold(c.position);
    for (const NetSpec &net : nets)
        for (const Point &t : net.terminals)
            fold(t);
    return {lo, hi};
}

} // namespace

namespace {

/**
 * Place a device pin just outside its keep-out pad on the first port
 * (from @p preferred directions) that stays clear of every other
 * device's pad and every previously placed pin. On dense lattices
 * (heavy squares, midpoint couplers) only some ports are open.
 */
Point
pickPin(const ChipTopology &chip, std::size_t device,
        const std::array<Point, 4> &preferred, double offset,
        std::vector<Point> &placed_pins, const ChipRoutingConfig &config)
{
    const Point center = chip.devicePosition(device);
    const double cell = config.grid.cellMm;
    auto clear = [&](const Point &pin) {
        for (std::size_t d = 0; d < chip.deviceCount(); ++d) {
            if (d == device)
                continue;
            const double pad =
                (chip.deviceKind(d) == DeviceKind::Qubit ? 1.0 : 0.5) *
                kDevicePadMm;
            const Point o = chip.devicePosition(d);
            if (std::abs(pin.x - o.x) <= pad + 2.0 * cell &&
                std::abs(pin.y - o.y) <= pad + 2.0 * cell)
                return false;
        }
        for (const Point &other : placed_pins) {
            if (std::abs(pin.x - other.x) < 2.0 * cell &&
                std::abs(pin.y - other.y) < 2.0 * cell)
                return false;
        }
        return true;
    };
    for (const Point &dir : preferred) {
        const Point pin{center.x + dir.x * offset,
                        center.y + dir.y * offset};
        if (clear(pin)) {
            placed_pins.push_back(pin);
            return pin;
        }
    }
    // Every port crowded: fall back to the first preference; the router's
    // retry loop gets to deal with it.
    const Point pin{center.x + preferred[0].x * offset,
                    center.y + preferred[0].y * offset};
    placed_pins.push_back(pin);
    return pin;
}

constexpr Point kEast{1.0, 0.0};
constexpr Point kWest{-1.0, 0.0};
constexpr Point kNorth{0.0, 1.0};
constexpr Point kSouth{0.0, -1.0};

} // namespace

std::vector<NetSpec>
buildWiringNets(const ChipTopology &chip, const FdmPlan &xy_plan,
                const TdmPlan &z_plan, const FdmPlan &readout_plan,
                const ChipRoutingConfig &config)
{
    const metrics::ScopedTimer timer("routing.build_nets");
    // Each control plane bonds to the device at its own port just outside
    // the keep-out pad (XY prefers west, Z east, readout north), falling
    // back to other ports on crowded lattices, so no wire ever needs to
    // cross a pad and pins never collide.
    const double qubit_pin = kDevicePadMm + 2.0 * config.grid.cellMm;
    const double coupler_pin = 0.5 * kDevicePadMm + 2.0 * config.grid.cellMm;
    std::vector<Point> placed;
    std::vector<NetSpec> nets;
    for (const auto &line : xy_plan.lines) {
        NetSpec net;
        for (std::size_t q : line)
            net.terminals.push_back(
                pickPin(chip, q, {kWest, kSouth, kEast, kNorth},
                        qubit_pin, placed, config));
        nets.push_back(std::move(net));
    }
    for (const TdmGroup &group : z_plan.groups) {
        NetSpec net;
        for (std::size_t d : group.devices) {
            const bool qubit = chip.deviceKind(d) == DeviceKind::Qubit;
            net.terminals.push_back(
                pickPin(chip, d,
                        qubit ? std::array<Point, 4>{kEast, kNorth, kWest,
                                                     kSouth}
                              : std::array<Point, 4>{kNorth, kSouth,
                                                     kEast, kWest},
                        qubit ? qubit_pin : coupler_pin, placed, config));
        }
        nets.push_back(std::move(net));
    }
    for (const auto &line : readout_plan.lines) {
        NetSpec net;
        for (std::size_t q : line)
            net.terminals.push_back(
                pickPin(chip, q, {kNorth, kSouth, kWest, kEast},
                        qubit_pin, placed, config));
        nets.push_back(std::move(net));
    }
    return nets;
}

namespace {

/** Which A* routes each terminal connection. */
enum class TerminalSearch {
    /** routeAstar: cheapest paths (routeChip, routeChipWithFallback). */
    Exact,
    /** routeAstarGoalDirected (routeTileWithFallback). */
    GoalDirected,
};

ChipRoutingResult
routeOnce(const ChipTopology &chip, const std::vector<NetSpec> &nets,
          const ChipRoutingConfig &config,
          const std::vector<std::size_t> &order,
          std::vector<bool> &net_failed, TerminalSearch search,
          SearchArena &arena, GoalDirectedArena &goal_directed_arena)
{
    requireConfig(!nets.empty(), "no nets to route");
    const auto [lo, hi] = deviceAndPinBox(chip, nets);

    ChipRoutingResult result;
    result.netCount = nets.size();
    RoutingGrid grid(lo, hi, config.grid);

    // Devices are keep-out pads until their own net opens pin windows.
    for (const QubitInfo &q : chip.qubits())
        grid.blockSquare(q.position, kDevicePadMm);
    for (const CouplerInfo &c : chip.couplers())
        grid.blockSquare(c.position, kDevicePadMm * 0.5);
    // Defect keep-outs (packaging flaws) are permanent obstacles.
    constexpr double kBlockedHalfWidthMm = 0.1;
    for (const Point &p : config.blockedCells)
        grid.blockSquare(p, kBlockedHalfWidthMm);

    // Interface slots along the expanded grid border, one pad width
    // apart (paper: ~0.5 mm). Dense chips shrink the pad pitch so the
    // perimeter can host one interface per net (never below two grid
    // cells).
    constexpr double kInterfaceSpacingMm = 0.5;
    const double m = config.grid.marginMm * 0.5;
    const double perim = 2.0 * (hi.x - lo.x + hi.y - lo.y + 4.0 * m);
    const double needed =
        0.9 * perim / static_cast<double>(nets.size());
    const double spacing = std::max(
        2.0 * config.grid.cellMm, std::min(kInterfaceSpacingMm, needed));
    std::vector<Point> slots = perimeterSlots(
        Point{lo.x - m, lo.y - m}, Point{hi.x + m, hi.y + m}, spacing);
    std::vector<bool> slot_used(slots.size(), false);
    requireConfig(slots.size() >= nets.size(),
                  "perimeter cannot host one interface per net");
    // Reserve every slot and pin cell so wires cannot squat on them.
    for (const Point &slot : slots)
        grid.blockSquare(slot, 0.5 * config.grid.cellMm);
    for (const NetSpec &net : nets)
        for (const Point &t : net.terminals)
            grid.blockSquare(t, 0.5 * config.grid.cellMm);

    net_failed.assign(nets.size(), false);
    for (std::size_t net_index : order) {
        cancel::poll("routing.net");
        const NetSpec &net = nets[net_index];
        requireConfig(!net.terminals.empty(), "net without terminals");
        const auto net_id = static_cast<std::int32_t>(net_index);
        const trace::TraceSpan net_span("routing.net", "routing");
        const auto net_start = std::chrono::steady_clock::now();

        // Claim the perimeter slot nearest the net centroid, skipping a
        // slot whose cell a net already owns: two slots can share a
        // corner cell, and a claim's clearSquare can free a neighbouring
        // slot's reserved cell for another net's wire.
        const Point c = centroid(net);
        double best = std::numeric_limits<double>::infinity();
        std::size_t best_slot = slots.size();
        for (std::size_t s = 0; s < slots.size(); ++s) {
            if (slot_used[s] || grid.owner(grid.cellAt(slots[s])) >= 0)
                continue;
            const double d = distance(slots[s], c);
            if (d < best) {
                best = d;
                best_slot = s;
            }
        }
        if (best_slot == slots.size()) {
            // No slot left: every connection of the net fails, and the
            // retry order or the dedicated-line fallback takes it.
            result.failedConnections += net.terminals.size();
            net_failed[net_index] = true;
            continue;
        }
        slot_used[best_slot] = true;
        ++result.interfaceCount;
        if (result.interfaces.empty())
            result.interfaces.assign(nets.size(), Point{lo.x, lo.y});
        result.interfaces[net_index] = slots[best_slot];
        grid.clearSquare(slots[best_slot], 0.5 * config.grid.cellMm);

        // Release this net's reserved pin cells, then route the
        // terminals as a greedy nearest-neighbour chain from the
        // interface so the trunk sweeps instead of zig-zagging.
        for (const Point &t : net.terminals)
            grid.clearSquare(t, 0.5 * config.grid.cellMm);
        std::vector<Point> tour;
        {
            std::vector<Point> left = net.terminals;
            Point at = slots[best_slot];
            while (!left.empty()) {
                std::size_t pick = 0;
                for (std::size_t k = 1; k < left.size(); ++k) {
                    if (distance(left[k], at) < distance(left[pick], at))
                        pick = k;
                }
                at = left[pick];
                tour.push_back(at);
                left.erase(left.begin() + static_cast<long>(pick));
            }
        }
        // The net's cells (interface plus every claim) feed the A*
        // heuristic, which would otherwise scan the grid per search.
        const Cell iface = grid.cellAt(slots[best_slot]);
        grid.setOwner(iface, net_id);
        std::vector<Cell> net_cells{iface};
        for (const Point &t : tour) {
            if (fault::site("routing.net")) {
                // Injected routing failure: this terminal connection is
                // unroutable, exactly as if A* had exhausted the grid.
                ++result.failedConnections;
                net_failed[net_index] = true;
                continue;
            }
            const Cell target = grid.cellAt(t);
            const auto path =
                search == TerminalSearch::GoalDirected
                    ? routeAstarGoalDirected(grid, iface, target, net_id,
                                             goal_directed_arena)
                    : routeAstar(grid, iface, target, net_id, arena,
                                 net_cells);
            if (!path.has_value()) {
                ++result.failedConnections;
                net_failed[net_index] = true;
                continue;
            }
            for (const Crossover &x : path->crossovers) {
                // Trunk reuse can re-cross the same bridge; record each
                // physical bridge once.
                const bool dup = std::any_of(
                    result.crossovers.begin(), result.crossovers.end(),
                    [&x](const Crossover &seen) {
                        return seen.cell == x.cell &&
                               seen.byNet == x.byNet;
                    });
                if (!dup)
                    result.crossovers.push_back(x);
            }
            result.totalLengthMm +=
                static_cast<double>(path->newCells) * grid.cellMm();
        }
        if (net_failed[net_index]) {
            trace::instant("routing.net_failed", "routing");
            log::debug("net failed to route",
                       {{"net", static_cast<std::uint64_t>(net_index)},
                        {"terminals", net.terminals.size()}});
        }
        metrics::observe(
            "routing.net_seconds",
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - net_start)
                .count());
    }
    result.routingAreaMm2 = result.totalLengthMm * config.grid.cellMm;
    result.grid = std::move(grid);
    return result;
}

ChipRoutingResult
routeNets(const ChipTopology &chip, const std::vector<NetSpec> &nets,
          const ChipRoutingConfig &config, TerminalSearch search)
{
    const metrics::ScopedTimer timer("routing.route_chip");
    // Short nets route first: pin stubs claim their pad alleys before the
    // long trunks (which have many detour options) weave around. When a
    // net still fails, rip everything up and retry with the failed nets
    // promoted to the front of the order (a deterministic stable
    // reorder), for up to kMaxRetryPasses passes in all. Retries consumed
    // are counted by the `routing.retry_passes` metric.
    constexpr std::size_t kMaxRetryPasses = 4;
    std::vector<std::size_t> order(nets.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&nets](std::size_t a, std::size_t b) {
                         return nets[a].terminals.size() <
                                nets[b].terminals.size();
                     });

    std::vector<bool> net_failed;
    std::vector<bool> best_failed;
    ChipRoutingResult best;
    bool have_best = false;
    // One arena serves every A* call across all nets and retry attempts.
    SearchArena arena;
    GoalDirectedArena goal_directed_arena;
    for (std::size_t attempt = 0; attempt < kMaxRetryPasses; ++attempt) {
        cancel::poll("routing.pass");
        metrics::count("routing.attempts");
        if (attempt > 0)
            metrics::count("routing.retry_passes");
        const trace::TraceSpan attempt_span("routing.attempt", "routing");
        ChipRoutingResult result =
            routeOnce(chip, nets, config, order, net_failed, search,
                      arena, goal_directed_arena);
        if (!have_best ||
            result.failedConnections < best.failedConnections) {
            best = std::move(result);
            best_failed = net_failed;
            have_best = true;
        }
        if (best.failedConnections == 0)
            break;
        std::stable_sort(order.begin(), order.end(),
                         [&net_failed](std::size_t a, std::size_t b) {
                             return net_failed[a] && !net_failed[b];
                         });
    }
    for (std::size_t i = 0; i < best_failed.size(); ++i)
        if (best_failed[i])
            best.failedNets.push_back(i);
    metrics::count("routing.nets_routed", best.netCount);
    metrics::count("routing.failed_connections", best.failedConnections);
    metrics::count("routing.crossovers", best.crossovers.size());
    log::info("chip routing done",
              {{"nets", best.netCount},
               {"failed", best.failedConnections},
               {"crossovers", best.crossovers.size()},
               {"length_mm", best.totalLengthMm}});
    return best;
}

RoutedWiring
routeWithFallback(const ChipTopology &chip, const std::vector<NetSpec> &nets,
                  const ChipRoutingConfig &config, TerminalSearch search)
{
    RoutedWiring routed;
    routed.result = routeNets(chip, nets, config, search);
    if (routed.result.failedNets.empty())
        return routed;

    // Last rung of the ladder: every net that survived all retry passes
    // with failures loses its trunk and wires each terminal on its own
    // dedicated line. Dedicated stubs are short and route first under
    // the shortest-net-first ordering, so the expanded list is strictly
    // easier than the one that failed.
    routed.fallbackNets = routed.result.failedNets;
    std::vector<bool> split(nets.size(), false);
    for (std::size_t i : routed.fallbackNets)
        split[i] = true;
    std::vector<NetSpec> expanded;
    expanded.reserve(nets.size());
    for (std::size_t i = 0; i < nets.size(); ++i) {
        if (!split[i]) {
            expanded.push_back(nets[i]);
            continue;
        }
        for (const Point &t : nets[i].terminals) {
            NetSpec dedicated;
            dedicated.terminals.push_back(t);
            expanded.push_back(std::move(dedicated));
            ++routed.dedicatedNetFallbacks;
        }
    }
    metrics::count("routing.dedicated_net_fallbacks",
                   routed.dedicatedNetFallbacks);
    log::warn("routing fallback: failed nets split into dedicated lines",
              {{"failed_nets", routed.fallbackNets.size()},
               {"dedicated_lines", routed.dedicatedNetFallbacks}});
    routed.result = routeNets(chip, expanded, config, search);
    return routed;
}

} // namespace

std::size_t
routingGridCells(const ChipTopology &chip, const std::vector<NetSpec> &nets,
                 const ChipRoutingConfig &config)
{
    const auto [lo, hi] = deviceAndPinBox(chip, nets);
    return RoutingGrid::cellsAcross(lo.x, hi.x, config.grid) *
           RoutingGrid::cellsAcross(lo.y, hi.y, config.grid);
}

ChipRoutingResult
routeChip(const ChipTopology &chip, const std::vector<NetSpec> &nets,
          const ChipRoutingConfig &config)
{
    return routeNets(chip, nets, config, TerminalSearch::Exact);
}

RoutedWiring
routeChipWithFallback(const ChipTopology &chip,
                      const std::vector<NetSpec> &nets,
                      const ChipRoutingConfig &config)
{
    return routeWithFallback(chip, nets, config, TerminalSearch::Exact);
}

RoutedWiring
routeTileWithFallback(const ChipTopology &chip,
                      const std::vector<NetSpec> &nets,
                      const ChipRoutingConfig &config)
{
    return routeWithFallback(chip, nets, config,
                             TerminalSearch::GoalDirected);
}

} // namespace youtiao
