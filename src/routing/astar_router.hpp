/**
 * @file
 * A* maze router over the routing grid.
 *
 * Finds shortest 4-connected paths between net terminals. Cells already
 * owned by the same net are traversable at near-zero cost, so sequential
 * terminal routing approximates a Steiner tree (trunk reuse) -- exactly
 * how a shared FDM line daisy-chains its group.
 *
 * Cells owned by other nets can be crossed perpendicularly through an
 * airbridge crossover (standard practice on superconducting chips) at a
 * high cost: the search state tracks the incoming direction, and while on
 * foreign metal only straight continuation is allowed. Bridge cells keep
 * their original owner; the crossing is reported, not claimed.
 */

#ifndef YOUTIAO_ROUTING_ASTAR_ROUTER_HPP
#define YOUTIAO_ROUTING_ASTAR_ROUTER_HPP

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "routing/grid.hpp"

namespace youtiao {

/** An airbridge crossover: net @p byNet hops over @p overNet at @p cell. */
struct Crossover
{
    Cell cell;
    std::int32_t byNet = 0;
    std::int32_t overNet = 0;
};

/** One routed path (sequence of adjacent cells, endpoints inclusive). */
struct RoutedPath
{
    std::vector<Cell> cells;
    /** Number of newly claimed cells (excludes reuse and bridges). */
    std::size_t newCells = 0;
    /** Airbridge crossovers used by this path. */
    std::vector<Crossover> crossovers;
};

/** Router cost knobs. */
struct AstarConfig
{
    /** Cost of one airbridge crossover cell (>> 1 discourages them). */
    double bridgeCost = 25.0;
    /** Extra cost for new metal adjacent to an obstacle (keeps pad
     *  alleys open for later pins). */
    double crowdingPenalty = 0.25;
    /**
     * Manhattan-distance multiplier of the A* heuristic. The default
     * stays below the cheapest per-step cost (same-net reuse, 0.02), so
     * the search is admissible even along an existing trunk and paths
     * are globally optimal -- at near-Dijkstra expansion cost. Larger
     * weights (up to ~1.0, the new-metal step cost) make the search
     * goal-directed and orders of magnitude faster; paths may then
     * under-reuse trunks but remain valid routes. The hierarchical tile
     * router runs at 2.0 (tunedTileRoutingConfig(), inconsistent and
     * strongly goal-directed); the flat path keeps the default so
     * existing results stay bit-identical.
     */
    double heuristicWeight = 0.01;
};

/**
 * Largest grid cell count (width * height) routeAstar can search. The
 * search state packs (cell, incoming direction) into a std::uint32_t
 * index, four states per cell, with the maximum value reserved as the
 * no-parent sentinel.
 */
std::size_t astarMaxCells();

/**
 * Throw ConfigError unless a @p width x @p height grid fits the A*
 * state index (see astarMaxCells()). routeAstar calls this itself;
 * exposed so callers can validate grid dimensions up front.
 */
void requireAstarIndexable(std::size_t width, std::size_t height);

/**
 * Reusable A* working memory: g-cost, parent and closed-set arrays of one
 * state per (cell, direction), kept alive across searches. begin() makes
 * every entry logically stale by bumping a generation counter instead of
 * refilling the arrays, so per-search setup is O(1) amortized — the
 * arrays are touched only where the search actually expands. A fresh
 * arena per call reproduces the original allocate-and-fill behaviour
 * exactly; reuse across calls is bit-identical because stale entries read
 * back as the old fill values (g = +inf, not closed).
 */
class SearchArena
{
  public:
    static constexpr std::uint32_t kNoParent =
        std::numeric_limits<std::uint32_t>::max();

    /** Invalidate all state for a new search over @p state_count states. */
    void begin(std::size_t state_count)
    {
        if (state_count > g_.size()) {
            g_.resize(state_count);
            parent_.resize(state_count);
            stamp_.assign(state_count, 0);
            closedStamp_.assign(state_count, 0);
            generation_ = 1;
            return;
        }
        if (++generation_ == 0) { // generation wrapped: hard reset
            stamp_.assign(stamp_.size(), 0);
            closedStamp_.assign(closedStamp_.size(), 0);
            generation_ = 1;
        }
    }

    double g(std::size_t s) const
    {
        return stamp_[s] == generation_
                   ? g_[s]
                   : std::numeric_limits<double>::infinity();
    }

    /** Record the best-known cost and predecessor of state @p s. */
    void relax(std::size_t s, double g, std::uint32_t parent)
    {
        stamp_[s] = generation_;
        g_[s] = g;
        parent_[s] = parent;
    }

    bool closed(std::size_t s) const
    {
        return closedStamp_[s] == generation_;
    }
    void close(std::size_t s) { closedStamp_[s] = generation_; }

    /**
     * Predecessor of @p s; valid only for states relaxed this search
     * (path reconstruction walks exactly those).
     */
    std::uint32_t parent(std::size_t s) const { return parent_[s]; }

    /** States the arena can hold without regrowing (diagnostic). */
    std::size_t capacity() const { return g_.size(); }

    /** Bytes of working memory currently held (diagnostic; the
     *  hierarchical router budgets per-tile arenas against this). */
    std::size_t memoryBytes() const
    {
        return g_.size() * (sizeof(double) + 3 * sizeof(std::uint32_t));
    }

  private:
    std::vector<double> g_;
    std::vector<std::uint32_t> parent_;
    /** Generation when g_/parent_ at a state were last written. */
    std::vector<std::uint32_t> stamp_;
    std::vector<std::uint32_t> closedStamp_;
    std::uint32_t generation_ = 0;
};

/**
 * Route @p net_id from @p from to @p to on @p grid. Obstacles are
 * impassable; other nets' cells may be bridged perpendicularly. On
 * success the new cells are claimed for the net and the path returned;
 * on failure nullopt (grid unchanged).
 */
[[nodiscard]] std::optional<RoutedPath>
routeAstar(RoutingGrid &grid, Cell from, Cell to, std::int32_t net_id,
           const AstarConfig &config = {});

/**
 * Same search reusing @p arena's buffers across calls (the chip router
 * routes one net at a time and passes one arena through the whole chip).
 * Results are identical to the fresh-buffer overload.
 */
[[nodiscard]] std::optional<RoutedPath>
routeAstar(RoutingGrid &grid, Cell from, Cell to, std::int32_t net_id,
           SearchArena &arena, const AstarConfig &config = {});

} // namespace youtiao

#endif // YOUTIAO_ROUTING_ASTAR_ROUTER_HPP
