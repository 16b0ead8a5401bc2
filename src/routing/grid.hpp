/**
 * @file
 * Routing grid for on-chip coplanar-waveguide layout.
 *
 * The paper's chip-level experiment uses path-based simulation on a grid
 * (10 um resolution in the paper; 20 um lines at 30 um pitch). Here one
 * grid cell spans a full line pitch, so distinct nets in distinct cells
 * automatically satisfy the spacing rule, and routing area equals path
 * length times pitch.
 */

#ifndef YOUTIAO_ROUTING_GRID_HPP
#define YOUTIAO_ROUTING_GRID_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "chip/device.hpp"

namespace youtiao {

/** Grid geometry parameters. */
struct RoutingGridConfig
{
    /** Cell edge = line pitch (mm); paper: 30 um. */
    double cellMm = 0.03;
    /** Margin between the device array and the bond-pad perimeter (mm);
     *  real chips keep several mm of standoff for wirebond fan-in. */
    double marginMm = 3.0;
};

/** Cell coordinate. */
struct Cell
{
    std::size_t x = 0;
    std::size_t y = 0;

    bool operator==(const Cell &other) const
    {
        return x == other.x && y == other.y;
    }
};

/** Occupancy grid with per-cell net ownership. */
class RoutingGrid
{
  public:
    /** Sentinel owners. */
    static constexpr std::int32_t kFree = -1;
    static constexpr std::int32_t kObstacle = -2;

    /**
     * Grid covering [min - margin, max + margin] of the given extents.
     */
    RoutingGrid(Point min_corner, Point max_corner,
                const RoutingGridConfig &config = {});

    std::size_t width() const { return width_; }
    std::size_t height() const { return height_; }
    double cellMm() const { return config_.cellMm; }

    /** Nearest cell to a chip-plane point (clamped to the grid). */
    Cell cellAt(const Point &p) const;

    /** Owner of a cell (kFree, kObstacle, or a net id >= 0). */
    std::int32_t owner(const Cell &c) const;

    /** Set the owner of a cell. */
    void setOwner(const Cell &c, std::int32_t owner);

    /** Mark a square obstacle of halfwidth @p half_mm centred at @p p. */
    void blockSquare(const Point &p, double half_mm);

    /** Clear a square region back to free (to open pin access). */
    void clearSquare(const Point &p, double half_mm);

    /** Owner of every cell, row-major (index y * width() + x). */
    const std::vector<std::int32_t> &owners() const { return owner_; }

    /**
     * Cells along one axis of a grid spanning [@p lo, @p hi] plus the
     * margin on both sides. The constructor sizes both axes with it, so
     * callers can size a grid without allocating it.
     */
    static std::size_t cellsAcross(double lo, double hi,
                                   const RoutingGridConfig &config);

  private:
    std::size_t index(const Cell &c) const;

    RoutingGridConfig config_;
    double originX_ = 0.0;
    double originY_ = 0.0;
    std::size_t width_ = 0;
    std::size_t height_ = 0;
    std::vector<std::int32_t> owner_;
};

} // namespace youtiao

#endif // YOUTIAO_ROUTING_GRID_HPP
