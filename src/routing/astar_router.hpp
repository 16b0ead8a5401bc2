/**
 * @file
 * A* maze router over the routing grid.
 *
 * Finds cheapest 4-connected paths between net terminals. Step costs are
 * integers in hundredths of a new-metal step, charged for the cell
 * entered: 2 to reuse the net's own metal (so sequential terminal routing
 * approximates a Steiner tree -- exactly how a shared FDM line
 * daisy-chains its group), 100 for new metal, 125 for new metal next to
 * an obstacle (keeps pad alleys open for later pins) and 2500 for each
 * airbridge crossover cell.
 *
 * Cells owned by other nets can be crossed perpendicularly through an
 * airbridge crossover (standard practice on superconducting chips): on
 * foreign metal only straight continuation is allowed. Bridge cells keep
 * their original owner; the crossing is reported, not claimed.
 *
 * routeAstar is exact. A step's cost depends only on the cell entered,
 * and moves out of an own or free cell do not depend on how the path came
 * in, so the search keeps one state per cell and treats a straight run
 * across foreign metal as a single move to the first plain cell beyond
 * it. The heuristic 100 h = min(100 M, 2 M + 98 D*) -- M the Manhattan
 * distance to the target, D* the smallest Manhattan distance from the
 * target to the net's own metal -- is admissible (after a path leaves the
 * net's metal for the last time, each of its >= D* remaining steps costs
 * >= 100) and consistent, so f never decreases between pops: a popped
 * cell is final and a monotone integer queue orders the frontier.
 *
 * routeAstarGoalDirected, the hierarchical tile router's search, is the
 * earlier goal-directed variant with the same costs and move rules.
 */

#ifndef YOUTIAO_ROUTING_ASTAR_ROUTER_HPP
#define YOUTIAO_ROUTING_ASTAR_ROUTER_HPP

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
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

/**
 * Largest grid cell count (width * height) routeAstar and
 * routeAstarGoalDirected can search: 2^30 - 1 cells, so the goal-directed
 * search's state index, cell * 4 + incoming direction, stays below the
 * std::uint32_t no-parent sentinel.
 */
std::size_t astarMaxCells();

/**
 * Throw ConfigError unless a @p width x @p height grid fits the A* state
 * index (see astarMaxCells()). routeAstar calls this itself; exposed so
 * callers can validate grid dimensions up front.
 */
void requireAstarIndexable(std::size_t width, std::size_t height);

/**
 * Reusable A* working memory: one 16-byte slot (g-cost, parent, stamp) per
 * grid cell plus the priority queue's buckets, kept alive across searches.
 * begin() makes every slot logically stale by bumping a generation counter
 * instead of refilling the array, so per-search setup is O(1) amortized --
 * slots are touched only where the search actually reaches. Reuse is
 * bit-identical to a fresh arena because a stale slot reads back as
 * unreached (g = kUnreached).
 */
class SearchArena
{
  public:
    static constexpr std::uint32_t kNoParent =
        std::numeric_limits<std::uint32_t>::max();
    static constexpr std::int64_t kUnreached =
        std::numeric_limits<std::int64_t>::max();

    /** Bytes of per-cell working memory for a grid of @p cells cells. */
    static constexpr std::size_t bytesFor(std::size_t cells)
    {
        return cells * sizeof(Slot);
    }

    /** Invalidate all state for a new search over @p cell_count cells. */
    void begin(std::size_t cell_count)
    {
        queue_.clear();
        if (cell_count > slots_.size()) {
            slots_.assign(cell_count, Slot{});
            generation_ = 1;
            return;
        }
        if (++generation_ == 0) { // generation wrapped: hard reset
            slots_.assign(slots_.size(), Slot{});
            generation_ = 1;
        }
    }

    std::int64_t g(std::size_t cell) const
    {
        return slots_[cell].stamp == generation_ ? slots_[cell].g
                                                 : kUnreached;
    }

    /** Record the best-known cost and predecessor of @p cell. */
    void relax(std::size_t cell, std::int64_t g, std::uint32_t parent)
    {
        slots_[cell] = Slot{g, parent, generation_};
    }

    /**
     * Predecessor of @p cell; valid only for cells relaxed this search
     * (path reconstruction walks exactly those).
     */
    std::uint32_t parent(std::size_t cell) const
    {
        return slots_[cell].parent;
    }

    /** Bytes of per-cell working memory currently held. The queue's
     *  buckets grow with the search frontier and are not counted. */
    std::size_t memoryBytes() const { return bytesFor(slots_.size()); }

    /**
     * Monotone integer priority queue (a radix heap) over (key, cell).
     * Keys pushed are never below the last key popped -- true of A*
     * f-costs under a consistent heuristic -- so bucket b holds the keys
     * whose highest bit differing from the last popped key is bit b - 1,
     * and every key moves down at most 64 times. Ties pop in a fixed
     * order, so searches are deterministic.
     */
    class MonotoneQueue
    {
      public:
        bool empty() const { return size_ == 0; }

        void push(std::uint64_t key, std::uint32_t cell)
        {
            buckets_[bucketOf(key)].push_back(Entry{key, cell});
            ++size_;
        }

        /** Remove and return the entry with the smallest key. */
        std::pair<std::uint64_t, std::uint32_t> pop();

        void clear();

      private:
        struct Entry
        {
            std::uint64_t key;
            std::uint32_t cell;
        };
        static constexpr std::size_t kBuckets = 65;

        std::size_t bucketOf(std::uint64_t key) const
        {
            return key == last_
                       ? 0
                       : 64 - static_cast<std::size_t>(
                                  std::countl_zero(key ^ last_));
        }

        std::array<std::vector<Entry>, kBuckets> buckets_;
        std::uint64_t last_ = 0;
        std::size_t size_ = 0;
    };

    MonotoneQueue &queue() { return queue_; }

  private:
    struct Slot
    {
        std::int64_t g = kUnreached;
        std::uint32_t parent = kNoParent;
        /** Generation when g and parent were last written. */
        std::uint32_t stamp = 0;
    };

    std::vector<Slot> slots_;
    MonotoneQueue queue_;
    std::uint32_t generation_ = 0;
};

/**
 * Route @p net_id from @p from to @p to on @p grid. Obstacles are
 * impassable; other nets' cells may be bridged perpendicularly. On
 * success the new cells are claimed for the net and the path returned;
 * on failure nullopt (grid unchanged). The path is a cheapest one under
 * the step costs above.
 *
 * @p net_cells must list every cell the net owns on @p grid (duplicates
 * are harmless); the heuristic reads it, and the search appends the cells
 * it claims, so a caller routing a net terminal by terminal keeps the list
 * in step with the grid at O(trunk) cost per search.
 */
[[nodiscard]] std::optional<RoutedPath>
routeAstar(RoutingGrid &grid, Cell from, Cell to, std::int32_t net_id,
           SearchArena &arena, std::vector<Cell> &net_cells);

/**
 * Same search with the net's cells found by scanning the grid, reusing
 * @p arena's buffers across calls. Results are identical to the overload
 * above given a complete cell list.
 */
[[nodiscard]] std::optional<RoutedPath>
routeAstar(RoutingGrid &grid, Cell from, Cell to, std::int32_t net_id,
           SearchArena &arena);

/** Same search with fresh buffers (results identical to the above). */
[[nodiscard]] std::optional<RoutedPath>
routeAstar(RoutingGrid &grid, Cell from, Cell to, std::int32_t net_id);

/**
 * Working memory of routeAstarGoalDirected: g-cost, parent and closed
 * stamps of four (cell, incoming direction) states per cell, reused across
 * searches and invalidated in O(1) by a generation counter like
 * SearchArena's.
 */
class GoalDirectedArena
{
  public:
    static constexpr std::uint32_t kNoParent =
        std::numeric_limits<std::uint32_t>::max();
    static constexpr std::size_t kStatesPerCell = 4;

    /** Bytes of per-state working memory for a grid of @p cells
     *  cells. */
    static constexpr std::size_t bytesFor(std::size_t cells)
    {
        return cells * kStatesPerCell *
               (sizeof(double) + 3 * sizeof(std::uint32_t));
    }

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

    /** Bytes of working memory currently held (the binary heap is not
     *  counted). */
    std::size_t memoryBytes() const
    {
        return bytesFor(g_.size() / kStatesPerCell);
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
 * The hierarchical tile router's search (routeTileWithFallback): A* over
 * (cell, incoming direction) states with routeAstar's step costs as
 * doubles, a binary heap and the inconsistent heuristic 2 M. It is
 * strongly goal-directed, so its paths are legal but not always
 * cheapest. It stays until perfbench's hier_scale can measure the exact
 * search: that workload keeps every pass's design artifact, so its peak
 * RSS grows with the pass count and a faster tile router reads as a
 * memory regression (ROADMAP).
 */
[[nodiscard]] std::optional<RoutedPath>
routeAstarGoalDirected(RoutingGrid &grid, Cell from, Cell to,
                       std::int32_t net_id, GoalDirectedArena &arena);

} // namespace youtiao

#endif // YOUTIAO_ROUTING_ASTAR_ROUTER_HPP
