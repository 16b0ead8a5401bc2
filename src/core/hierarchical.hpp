/**
 * @file
 * Hierarchical scale-out of the YOUTIAO designer (DESIGN.md §10).
 *
 * The flat designer and router are superlinear in chip size, so systems
 * beyond a few hundred qubits are designed tile by tile: the chip is cut
 * into a rectangular tile lattice, each tile runs the full existing
 * pipeline independently (parallel across the work-stealing pool,
 * deterministic per-tile seeds), and the results are stitched back
 * together --
 *
 *  - plans are lifted to global indices and concatenated (plan_merge);
 *  - couplers crossing a seam get their own always-realizable TDM
 *    groups;
 *  - a boundary-aware frequency pass retunes near-seam qubits whose
 *    cross-seam spectral crosstalk exceeds the seam epsilon, so FDM
 *    groups facing each other across a cut stay as clean as in-tile
 *    ones;
 *  - tile-level routing terminates at each tile's perimeter, and the
 *    corridor router carries every net through the reserved seam
 *    corridors to the chip boundary over 64-bit segment indices.
 *
 * Differential contract (the correctness backbone, pinned by
 * tests/test_hierarchical.cpp): with a single tile covering the whole
 * chip, every field of the merged design is bit-identical to the flat
 * designer's output -- the hierarchy is pure plumbing until there is
 * more than one tile. At every scale the stitched result must pass the
 * routing DRC, the seam crosstalk threshold, and the
 * DegradationReport-clean invariants on a healthy chip.
 */

#ifndef YOUTIAO_CORE_HIERARCHICAL_HPP
#define YOUTIAO_CORE_HIERARCHICAL_HPP

#include <atomic>
#include <cstdint>
#include <vector>

#include "chip/topology.hpp"
#include "common/expected.hpp"
#include "core/youtiao.hpp"
#include "routing/chip_router.hpp"
#include "routing/corridor_router.hpp"
#include "routing/drc.hpp"

namespace youtiao {

/**
 * Assignment of qubits to a rectangular tile lattice. Tile ids are
 * iy * tilesX + ix; cut coordinates include the outer chip edges. Empty
 * tiles are legal in the map (the designer drops them).
 */
struct TileMap
{
    std::size_t tilesX = 1;
    std::size_t tilesY = 1;
    /** Ascending tile boundaries (mm), size tilesX + 1 / tilesY + 1. */
    std::vector<double> xCutsMm;
    std::vector<double> yCutsMm;
    /** Tile id per qubit. */
    std::vector<std::size_t> tileOfQubit;

    std::size_t tileCount() const { return tilesX * tilesY; }
};

/**
 * Cut the chip's qubit bounding box into near-square tiles of about
 * @p tile_size_qubits qubits each (0, or a size >= the qubit count,
 * yields the single-tile map). Assignment is geometric: a qubit belongs
 * to the tile whose cell contains its position (half-open, clamped).
 */
TileMap makeUniformTileMap(const ChipTopology &chip,
                           std::size_t tile_size_qubits);

/** Throw ConfigError unless @p map is well-formed for @p qubit_count. */
void validateTileMap(const TileMap &map, std::size_t qubit_count);

/** Hierarchical designer knobs. */
struct HierarchicalConfig
{
    /** Target qubits per tile; 0 = one tile spanning the chip. */
    std::size_t tileSizeQubits = 64;
    /**
     * Half-width of the seam band (mm) within which qubits participate
     * in the boundary stitch; 0 = auto (2.05x the median coupler span,
     * covering nearest and next-nearest cross-seam neighbours).
     */
    double seamRadiusMm = 0.0;
    /**
     * A cross-seam pair whose spectral crosstalk cost
     * (crosstalk * Lorentzian overlap) exceeds this retunes one of its
     * qubits. Calibrated against the flat allocator's residual per-pair
     * costs on grid chips (worst in-tile pairs sit well below 1e-4).
     */
    double seamCrosstalkEpsilon = 1e-4;
    /** Retune sweeps over the seam band (even passes move the
     *  higher-tile endpoint of a hot pair, odd passes the lower). */
    std::size_t maxSeamPasses = 4;
};

/** One designed tile. */
struct HierarchicalTile
{
    /** Lattice coordinates of this tile. */
    std::size_t ix = 0;
    std::size_t iy = 0;
    /** Global qubit index per local qubit (ascending). */
    std::vector<std::size_t> qubits;
    /** Global coupler index per local coupler (both endpoints inside). */
    std::vector<std::size_t> couplers;
    /** The tile sub-chip (global coordinates, local indices). */
    ChipTopology chip;
    /** The flat pipeline's design for this tile (local indices). */
    YoutiaoDesign design;
};

/** Everything the hierarchical pipeline produces. */
struct HierarchicalDesign
{
    TileMap map;
    /** Non-empty tiles, in tile-id order. */
    std::vector<HierarchicalTile> tiles;
    /** Dense tile index (into tiles) per qubit. */
    std::vector<std::size_t> tileOfQubit;
    /** Global coupler indices crossing a seam (ascending). */
    std::vector<std::size_t> seamCouplers;
    /** Stitched chip-wide design (global indices). */
    YoutiaoDesign merged;

    // Seam-stitch diagnostics.
    std::size_t seamPairsChecked = 0;
    std::size_t seamRetunes = 0;
    std::size_t seamViolationsUnresolved = 0;
    /** Largest cross-seam pair cost after stitching. */
    double maxSeamCrosstalk = 0.0;
    double seamRadiusMmUsed = 0.0;
};

/**
 * The tiled pipeline. Its stages run once, in designTiles behind the
 * *Robust entry points; the two throwing entry points are
 * valueOrThrow() over their structured twins, so a clean run is
 * byte-identical through either API. Through the throwing API:
 *  - a tile the flat designer's ladder rescues comes back degraded, as
 *    on the robust path (each tile runs designFromMeasurementsRobust);
 *  - any failure -- a tile no rung rescues, a characterization that
 *    does not match the chip, an InternalError -- throws ConfigError
 *    carrying the DesignError's toString() ("validation: ...");
 *  - a cooperative abort throws cancel::Cancelled with the original
 *    reason and poll site (throwDesignError()).
 */
class HierarchicalDesigner
{
  public:
    explicit HierarchicalDesigner(YoutiaoConfig config = {},
                                  HierarchicalConfig hierarchical = {});

    const YoutiaoConfig &config() const { return config_; }
    const HierarchicalConfig &hierarchical() const { return hier_; }

    /**
     * Fit-free tiled design from measured matrices (sliced per tile).
     * With a single tile the result's merged design is bit-identical to
     * YoutiaoDesigner::designFromMeasurements.
     */
    HierarchicalDesign
    designFromMeasurements(const ChipTopology &chip,
                           const ChipCharacterization &data,
                           double w_phy = 0.6) const;

    /**
     * Scale path: characterize each tile synthetically (per-tile seeded
     * measurement, O(tile^2) instead of O(chip^2)) and design from those
     * measurements. The merged design leaves the global predicted
     * matrices empty -- at 10k+ qubits they would not fit memory.
     */
    HierarchicalDesign designSynthesized(const ChipTopology &chip,
                                         double w_phy = 0.6) const;

    /**
     * Structured-error variants of the two entry points above. A tile
     * whose design fails, any other failure, or a cooperative abort
     * (common/cancel.hpp; polled per tile, at the merge barrier, per
     * seam-stitch pass and before returning) comes back as a
     * DesignError instead of an exception; cancellation carries code
     * Cancelled/DeadlineExceeded and, when @p partial is non-null,
     * records how far the tile fan-out got ("cancelled after N of M
     * tiles") so a deadline-killed run still reports structured
     * progress.
     */
    Expected<HierarchicalDesign, DesignError>
    designSynthesizedRobust(const ChipTopology &chip, double w_phy = 0.6,
                            DegradationReport *partial = nullptr) const;

    Expected<HierarchicalDesign, DesignError>
    designFromMeasurementsRobust(const ChipTopology &chip,
                                 const ChipCharacterization &data,
                                 double w_phy = 0.6,
                                 DegradationReport *partial = nullptr) const;

  private:
    HierarchicalDesign designTiles(const ChipTopology &chip, TileMap map,
                                   const ChipCharacterization *data,
                                   double w_phy,
                                   std::atomic<std::size_t> *tiles_done
                                   = nullptr,
                                   std::size_t *tiles_total
                                   = nullptr) const;

    /** designTiles on the uniform tile map, every failure caught into a
     *  DesignError (the shared body of all four entry points). */
    Expected<HierarchicalDesign, DesignError>
    designTilesRobust(const ChipTopology &chip,
                      const ChipCharacterization *data, double w_phy,
                      DegradationReport *partial) const;

    /** Boundary-aware frequency retune over the seam band. */
    void stitchSeamsImpl(const ChipTopology &chip,
                         const ChipCharacterization *data,
                         HierarchicalDesign &out) const;

    YoutiaoConfig config_;
    HierarchicalConfig hier_;
};

/** Tile routing defaults for the hierarchical path: coarser cells (0.08
 *  mm, 1.0 mm margin), with which the tile search
 *  (routeTileWithFallback) keeps a 64-qubit tile under a second while
 *  staying DRC-clean (bench_fig17 part (f) pins this). */
ChipRoutingConfig tunedTileRoutingConfig();

/** Hierarchical routing knobs. */
struct HierarchicalRoutingConfig
{
    /** Per-tile maze-routing configuration. */
    ChipRoutingConfig tile = tunedTileRoutingConfig();
    /** Seam corridor routing configuration. */
    CorridorConfig corridor;
    /**
     * Upper bound on one tile search's per-state arena memory
     * (GoalDirectedArena::bytesFor the tile's routing grid; the search's
     * priority queue is not counted); a tile whose routing grid would
     * exceed it raises ConfigError up front (shrink the tiles or coarsen
     * the cells) instead of thrashing.
     */
    std::size_t maxArenaBytes = 512ull << 20;
};

/** Chip-level result of hierarchical routing. */
struct HierarchicalRouting
{
    /** Per tile, in HierarchicalDesign::tiles order. */
    std::vector<RoutedWiring> tiles;
    std::vector<DrcReport> tileDrc;
    CorridorLattice lattice;
    /** Corridor entry segment per corridor net (all tile nets in
     *  (tile, net) order, then one net per seam TDM group). */
    std::vector<std::uint64_t> corridorEntries;
    CorridorResult corridor;
    CorridorDrcReport corridorDrc;

    std::size_t totalNets = 0;
    std::size_t failedConnections = 0;
    double totalLengthMm = 0.0;
    /** Largest per-tile arena, as budgeted against maxArenaBytes
     *  (bytes; queue excluded). */
    std::size_t peakArenaBytes = 0;

    /** Every tile DRC-clean, corridors clean, nothing failed. */
    bool clean() const;
};

/**
 * Route a hierarchical design: every tile's nets through the tile-level
 * maze router (parallel across tiles), then every net from its tile
 * perimeter through the seam corridors to the chip boundary, plus one
 * corridor net per seam TDM group.
 */
HierarchicalRouting
routeHierarchical(const ChipTopology &chip,
                  const HierarchicalDesign &design,
                  const HierarchicalRoutingConfig &config = {});

} // namespace youtiao

#endif // YOUTIAO_CORE_HIERARCHICAL_HPP
