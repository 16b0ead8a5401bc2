#include "routing/grid.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace youtiao {

RoutingGrid::RoutingGrid(Point min_corner, Point max_corner,
                         const RoutingGridConfig &config)
    : config_(config)
{
    requireConfig(config.cellMm > 0.0, "cell size must be positive");
    requireConfig(max_corner.x >= min_corner.x &&
                      max_corner.y >= min_corner.y,
                  "grid corners are inverted");
    originX_ = min_corner.x - config.marginMm;
    originY_ = min_corner.y - config.marginMm;
    width_ = cellsAcross(min_corner.x, max_corner.x, config);
    height_ = cellsAcross(min_corner.y, max_corner.y, config);
    owner_.assign(width_ * height_, kFree);
}

std::size_t
RoutingGrid::cellsAcross(double lo, double hi,
                         const RoutingGridConfig &config)
{
    const double span = hi - lo + 2.0 * config.marginMm;
    return static_cast<std::size_t>(std::ceil(span / config.cellMm)) + 1;
}

Cell
RoutingGrid::cellAt(const Point &p) const
{
    const auto clamp_axis = [](double v, std::size_t n) {
        const long raw = std::lround(v);
        return static_cast<std::size_t>(
            std::clamp(raw, 0L, static_cast<long>(n) - 1));
    };
    return Cell{clamp_axis((p.x - originX_) / config_.cellMm, width_),
                clamp_axis((p.y - originY_) / config_.cellMm, height_)};
}

std::int32_t
RoutingGrid::owner(const Cell &c) const
{
    return owner_[index(c)];
}

void
RoutingGrid::setOwner(const Cell &c, std::int32_t owner)
{
    owner_[index(c)] = owner;
}

void
RoutingGrid::blockSquare(const Point &p, double half_mm)
{
    const Cell lo = cellAt(Point{p.x - half_mm, p.y - half_mm});
    const Cell hi = cellAt(Point{p.x + half_mm, p.y + half_mm});
    for (std::size_t y = lo.y; y <= hi.y; ++y) {
        for (std::size_t x = lo.x; x <= hi.x; ++x)
            owner_[y * width_ + x] = kObstacle;
    }
}

void
RoutingGrid::clearSquare(const Point &p, double half_mm)
{
    const Cell lo = cellAt(Point{p.x - half_mm, p.y - half_mm});
    const Cell hi = cellAt(Point{p.x + half_mm, p.y + half_mm});
    for (std::size_t y = lo.y; y <= hi.y; ++y) {
        for (std::size_t x = lo.x; x <= hi.x; ++x) {
            if (owner_[y * width_ + x] == kObstacle)
                owner_[y * width_ + x] = kFree;
        }
    }
}

std::size_t
RoutingGrid::index(const Cell &c) const
{
    requireInternal(c.x < width_ && c.y < height_,
                    "grid cell out of range");
    return c.y * width_ + c.x;
}

} // namespace youtiao
