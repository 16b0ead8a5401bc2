/**
 * @file
 * Whole-chip control-line routing (paper Section 5.3, chip level).
 *
 * Places one interface per net on the chip perimeter (0.5 mm pads), then
 * routes every net -- XY FDM trunks daisy-chaining their qubit group, Z
 * TDM lines fanning out to their DEMUX group, readout feedlines -- with
 * the A* maze router under no-crossing / pitch-spacing rules. Reports
 * total wire length and routing area (length x 30 um pitch).
 */

#ifndef YOUTIAO_ROUTING_CHIP_ROUTER_HPP
#define YOUTIAO_ROUTING_CHIP_ROUTER_HPP

#include <optional>
#include <vector>

#include "chip/topology.hpp"
#include "multiplex/fdm.hpp"
#include "multiplex/tdm.hpp"
#include "routing/astar_router.hpp"
#include "routing/grid.hpp"

namespace youtiao {

/** A multi-terminal net to be routed from one perimeter interface. */
struct NetSpec
{
    std::vector<Point> terminals;
};

/** Router configuration. */
struct ChipRoutingConfig
{
    RoutingGridConfig grid;
    /**
     * Extra keep-out squares blocked before any net routes (packaging
     * flaws; fed from ChipDefects::blockedRoutingCells), each 0.2 mm
     * across. Wires detour around them or fail into the retry/fallback
     * ladder.
     */
    std::vector<Point> blockedCells;
};

/** Aggregate routing metrics. */
struct ChipRoutingResult
{
    std::size_t netCount = 0;
    /** Terminal connections the router could not complete. */
    std::size_t failedConnections = 0;
    /** Indices of nets with at least one failed connection (ascending). */
    std::vector<std::size_t> failedNets;
    /** Total new metal length (mm). */
    double totalLengthMm = 0.0;
    /** Routing area: length x line pitch (mm^2). */
    double routingAreaMm2 = 0.0;
    /** Perimeter interfaces consumed: one per net that claimed a slot
     *  (a net left without one fails all its connections). */
    std::size_t interfaceCount = 0;
    /** Interface pad claimed by each net, indexed by net (the
     *  hierarchical router anchors corridor entry on these). A net that
     *  claimed no slot reads the lower-left corner of the device box. */
    std::vector<Point> interfaces;
    /** Airbridge crossovers used (cell + the net bridged over). */
    std::vector<Crossover> crossovers;
    /** Final occupancy grid (for DRC and inspection). */
    std::optional<RoutingGrid> grid;
};

/**
 * Build the analog net list for a wiring plan: one net per FDM XY line,
 * one per TDM Z group, one per readout feedline group. Pin points sit
 * just outside the device keep-out pads (XY west, Z east, readout north,
 * coupler north), so nets bond at pad edges and never cross pads.
 */
std::vector<NetSpec> buildWiringNets(const ChipTopology &chip,
                                     const FdmPlan &xy_plan,
                                     const TdmPlan &z_plan,
                                     const FdmPlan &readout_plan,
                                     const ChipRoutingConfig &config = {});

/**
 * Cells of the grid routeChip lays for @p nets on @p chip: the box around
 * every device and pin, plus the margin. Lets a caller budget the
 * search's per-cell memory (SearchArena::bytesFor) before routing.
 */
std::size_t routingGridCells(const ChipTopology &chip,
                             const std::vector<NetSpec> &nets,
                             const ChipRoutingConfig &config);

/** Route all nets on @p chip. */
ChipRoutingResult routeChip(const ChipTopology &chip,
                            const std::vector<NetSpec> &nets,
                            const ChipRoutingConfig &config = {});

/** routeChip plus the degradation ladder's last routing resort. */
struct RoutedWiring
{
    /** Final routing (after the fallback re-route when one happened). */
    ChipRoutingResult result;
    /** Original net indices split into dedicated per-terminal lines. */
    std::vector<std::size_t> fallbackNets;
    /** Dedicated lines created by the fallback (= extra interfaces). */
    std::size_t dedicatedNetFallbacks = 0;
};

/**
 * Route @p nets; if nets still fail after routeChip's retry passes,
 * split each failed multi-terminal net into one dedicated net per
 * terminal (every terminal gets its own perimeter interface -- the
 * no-multiplexing wiring the trunk was supposed to replace) and route
 * the expanded net list once more. Deterministic; never throws beyond
 * routeChip's own config validation.
 */
RoutedWiring routeChipWithFallback(const ChipTopology &chip,
                                   const std::vector<NetSpec> &nets,
                                   const ChipRoutingConfig &config = {});

/**
 * routeChipWithFallback for one tile of the hierarchical router: the same
 * grid, net order, retries and fallback, with every terminal path from
 * routeAstarGoalDirected (GoalDirectedArena::bytesFor its grid) instead of
 * the exact routeAstar. It goes once perfbench's hier_scale can measure
 * the exact search on tiles (see routeAstarGoalDirected).
 */
RoutedWiring routeTileWithFallback(const ChipTopology &chip,
                                   const std::vector<NetSpec> &nets,
                                   const ChipRoutingConfig &config);

} // namespace youtiao

#endif // YOUTIAO_ROUTING_CHIP_ROUTER_HPP
