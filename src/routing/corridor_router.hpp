/**
 * @file
 * Corridor routing between tiles of a hierarchical design.
 *
 * Tile routing (chip_router) terminates every net at an interface pad on
 * its tile's perimeter; this module carries those nets from the tile edge
 * to the chip boundary through the reserved seam corridors between tiles.
 * The corridor network is a lattice whose vertices are tile corners and
 * whose edges are the corridor *segments* running along each tile-cut
 * line; a net's corridor path is a contiguous chain of segments from the
 * entry segment nearest its interface pad to any segment on the chip
 * boundary.
 *
 * The search is a congestion-aware Dijkstra whose state (best cost,
 * parent, visit stamp, usage) lives in arrays indexed by segment, sized
 * once per routeCorridors call and reused across nets. A 100k-qubit chip
 * at 64 qubits per tile is a 40x40-tile lattice of 3,280 segments; a
 * lattice whose state would exceed kCorridorStateBudgetBytes is refused
 * with ConfigError before anything is allocated.
 */

#ifndef YOUTIAO_ROUTING_CORRIDOR_ROUTER_HPP
#define YOUTIAO_ROUTING_CORRIDOR_ROUTER_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "chip/device.hpp"

namespace youtiao {

/**
 * The corridor lattice spanned by the tile cuts of a hierarchical
 * design. xCutsMm/yCutsMm are the ascending tile boundary coordinates
 * including the outer chip edges, so tilesX() = xCutsMm.size() - 1.
 *
 * Segment id scheme:
 *   horizontal segment (i, j): runs along y = yCutsMm[j] from xCutsMm[i]
 *     to xCutsMm[i+1], for i in [0, tilesX), j in [0, tilesY]; its id is
 *     j * tilesX + i.
 *   vertical segment (i, j): runs along x = xCutsMm[i] from yCutsMm[j]
 *     to yCutsMm[j+1], for i in [0, tilesX], j in [0, tilesY); its id is
 *     horizontalCount() + i * tilesY + j.
 */
struct CorridorLattice
{
    std::vector<double> xCutsMm;
    std::vector<double> yCutsMm;

    std::uint64_t tilesX() const
    {
        return static_cast<std::uint64_t>(xCutsMm.size()) - 1;
    }
    std::uint64_t tilesY() const
    {
        return static_cast<std::uint64_t>(yCutsMm.size()) - 1;
    }
    std::uint64_t horizontalCount() const
    {
        return tilesX() * (tilesY() + 1);
    }
    std::uint64_t segmentCount() const
    {
        return horizontalCount() + (tilesX() + 1) * tilesY();
    }

    /** Length of segment @p id (mm). */
    double segmentLengthMm(std::uint64_t id) const;

    /** Midpoint of segment @p id. */
    Point segmentMidpoint(std::uint64_t id) const;

    /** Segments sharing a lattice vertex with @p id (at most 6). */
    std::vector<std::uint64_t> adjacentSegments(std::uint64_t id) const;

    /** True when the segment lies on the outer chip boundary. */
    bool isBoundary(std::uint64_t id) const;

    /**
     * The side segment of tile (ix, iy) nearest to point @p p (smallest
     * midpoint distance; ties break to the lowest id). This is where a
     * net whose tile-level interface pad sits at @p p enters the
     * corridor network.
     */
    std::uint64_t entrySegmentForTile(std::uint64_t ix, std::uint64_t iy,
                                      const Point &p) const;
};

/** Build the lattice straight from tile-cut coordinate lists. */
CorridorLattice makeCorridorLattice(std::vector<double> x_cuts_mm,
                                    std::vector<double> y_cuts_mm);

/**
 * Upper bound on routeCorridors' per-segment search state (bytes; the
 * queue is not counted, as in the tile arena budget): half the default
 * tile budget, and over 2,000x what the 100k-qubit chip's lattice needs.
 */
inline constexpr std::uint64_t kCorridorStateBudgetBytes = 256ull << 20;

/** One net's corridor path (entry segment first). */
struct CorridorPath
{
    std::vector<std::uint64_t> segments;
    double lengthMm = 0.0;
};

/** Result of routing a batch of nets through the corridors. */
struct CorridorResult
{
    /** Per net, in input order, entry segment first. */
    std::vector<CorridorPath> paths;
    /** Always 0: every entry segment reaches the chip boundary. */
    std::size_t failedNets = 0;
    /** Nets crossing each segment, indexed by segment id. */
    std::vector<std::uint32_t> usage;
    std::size_t maxSegmentUsage = 0;
    /** Corridor width needed for the busiest segment (usage * pitch). */
    double maxCorridorWidthMm = 0.0;
};

/**
 * Route every net from its entry segment to the chip boundary,
 * congestion-aware, in input order (deterministic): a segment's cost
 * grows with the nets already crossing it, so later nets spread across
 * parallel corridors instead of piling onto one seam. A net whose entry
 * segment is already on the boundary gets the one-segment path. Throws
 * ConfigError for an entry outside the lattice or a lattice whose
 * search state would exceed kCorridorStateBudgetBytes.
 */
CorridorResult routeCorridors(const CorridorLattice &lattice,
                              const std::vector<std::uint64_t> &entries);

/** Corridor design-rule report. */
struct CorridorDrcReport
{
    bool clean = true;
    std::vector<std::string> violations;
};

/**
 * Check the corridor invariants: every net routed, every segment id
 * inside the lattice, each path starts at its entry segment, consecutive
 * segments are lattice-adjacent, the last segment reaches the chip
 * boundary, and the recorded usage matches the paths.
 */
CorridorDrcReport checkCorridorDrc(const CorridorLattice &lattice,
                                   const CorridorResult &result,
                                   const std::vector<std::uint64_t> &entries);

} // namespace youtiao

#endif // YOUTIAO_ROUTING_CORRIDOR_ROUTER_HPP
