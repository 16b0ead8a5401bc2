#include "routing/corridor_router.hpp"

#include <algorithm>
#include <functional>
#include <limits>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"

namespace youtiao {

namespace {

struct SegRef
{
    bool horizontal = false;
    std::uint64_t i = 0;
    std::uint64_t j = 0;
};

SegRef
decode(const CorridorLattice &lattice, std::uint64_t id)
{
    requireConfig(id < lattice.segmentCount(),
                  "corridor segment id out of range");
    SegRef ref;
    if (id < lattice.horizontalCount()) {
        ref.horizontal = true;
        ref.i = id % lattice.tilesX();
        ref.j = id / lattice.tilesX();
    } else {
        const std::uint64_t v = id - lattice.horizontalCount();
        ref.i = v / lattice.tilesY();
        ref.j = v % lattice.tilesY();
    }
    return ref;
}

/** Segments incident to lattice vertex (i, j): up to two horizontal
 *  (left/right) and two vertical (below/above). */
void
segmentsAtVertex(const CorridorLattice &lattice, std::uint64_t i,
                 std::uint64_t j, std::vector<std::uint64_t> &out)
{
    const std::uint64_t tx = lattice.tilesX();
    const std::uint64_t ty = lattice.tilesY();
    if (i > 0)
        out.push_back(j * tx + (i - 1));
    if (i < tx)
        out.push_back(j * tx + i);
    if (j > 0)
        out.push_back(lattice.horizontalCount() + i * ty + (j - 1));
    if (j < ty)
        out.push_back(lattice.horizontalCount() + i * ty + j);
}

/** Segments sharing a lattice vertex with @p ref, itself included. */
void
segmentsAround(const CorridorLattice &lattice, const SegRef &ref,
               std::vector<std::uint64_t> &out)
{
    segmentsAtVertex(lattice, ref.i, ref.j, out);
    if (ref.horizontal)
        segmentsAtVertex(lattice, ref.i + 1, ref.j, out);
    else
        segmentsAtVertex(lattice, ref.i, ref.j + 1, out);
}

bool
onBoundary(const CorridorLattice &lattice, const SegRef &ref)
{
    if (ref.horizontal)
        return ref.j == 0 || ref.j == lattice.tilesY();
    return ref.i == 0 || ref.i == lattice.tilesX();
}

/**
 * Congestion pressure: a segment already carrying u nets costs
 * length * (1 + kCongestionWeight * u / kUsageNorm) to traverse.
 */
constexpr double kCongestionWeight = 4.0;
constexpr double kUsageNorm = 32.0;
/** Line pitch inside a corridor (mm); sizes the width report. */
constexpr double kLinePitchMm = 0.03;
/** Search state per segment: lengthMm, g, parent, stamp and usage. */
constexpr std::uint64_t kStateBytesPerSegment =
    2 * sizeof(double) + 2 * sizeof(std::uint64_t) + sizeof(std::uint32_t);

double
traversalCost(double length_mm, std::uint32_t usage)
{
    return length_mm * (1.0 + kCongestionWeight *
                                  static_cast<double>(usage) / kUsageNorm);
}

} // namespace

double
CorridorLattice::segmentLengthMm(std::uint64_t id) const
{
    const SegRef ref = decode(*this, id);
    if (ref.horizontal)
        return xCutsMm[ref.i + 1] - xCutsMm[ref.i];
    return yCutsMm[ref.j + 1] - yCutsMm[ref.j];
}

Point
CorridorLattice::segmentMidpoint(std::uint64_t id) const
{
    const SegRef ref = decode(*this, id);
    if (ref.horizontal)
        return Point{0.5 * (xCutsMm[ref.i] + xCutsMm[ref.i + 1]),
                     yCutsMm[ref.j]};
    return Point{xCutsMm[ref.i],
                 0.5 * (yCutsMm[ref.j] + yCutsMm[ref.j + 1])};
}

std::vector<std::uint64_t>
CorridorLattice::adjacentSegments(std::uint64_t id) const
{
    std::vector<std::uint64_t> out;
    segmentsAround(*this, decode(*this, id), out);
    out.erase(std::remove(out.begin(), out.end(), id), out.end());
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

bool
CorridorLattice::isBoundary(std::uint64_t id) const
{
    return onBoundary(*this, decode(*this, id));
}

std::uint64_t
CorridorLattice::entrySegmentForTile(std::uint64_t ix, std::uint64_t iy,
                                     const Point &p) const
{
    requireConfig(ix < tilesX() && iy < tilesY(),
                  "tile index outside the corridor lattice");
    const std::uint64_t sides[4] = {
        iy * tilesX() + ix,                         // south
        (iy + 1) * tilesX() + ix,                   // north
        horizontalCount() + ix * tilesY() + iy,     // west
        horizontalCount() + (ix + 1) * tilesY() + iy // east
    };
    std::uint64_t best = sides[0];
    double best_d = std::numeric_limits<double>::infinity();
    for (std::uint64_t id : sides) {
        const double d = distance(segmentMidpoint(id), p);
        if (d < best_d || (d == best_d && id < best)) {
            best_d = d;
            best = id;
        }
    }
    return best;
}

CorridorLattice
makeCorridorLattice(std::vector<double> x_cuts_mm,
                    std::vector<double> y_cuts_mm)
{
    requireConfig(x_cuts_mm.size() >= 2 && y_cuts_mm.size() >= 2,
                  "corridor lattice needs at least one tile per axis");
    requireConfig(std::is_sorted(x_cuts_mm.begin(), x_cuts_mm.end()) &&
                      std::is_sorted(y_cuts_mm.begin(), y_cuts_mm.end()),
                  "corridor cuts must be ascending");
    CorridorLattice lattice;
    lattice.xCutsMm = std::move(x_cuts_mm);
    lattice.yCutsMm = std::move(y_cuts_mm);
    return lattice;
}

CorridorResult
routeCorridors(const CorridorLattice &lattice,
               const std::vector<std::uint64_t> &entries)
{
    const metrics::ScopedTimer timer("corridor.route");
    const std::uint64_t segments = lattice.segmentCount();
    requireConfig(
        segments <= kCorridorStateBudgetBytes / kStateBytesPerSegment,
        "corridor lattice of " + std::to_string(segments) +
            " segments needs " +
            std::to_string(segments * kStateBytesPerSegment) +
            " bytes of search state, over the budget of " +
            std::to_string(kCorridorStateBudgetBytes) +
            " bytes; use larger tiles");

    // Dense per-segment search state, reused across nets: g[s] and
    // parent[s] belong to net n's search only while stamp[s] == n + 1.
    std::vector<double> length_mm(segments);
    std::vector<double> g(segments);
    std::vector<std::uint64_t> parent(segments);
    std::vector<std::uint64_t> stamp(segments, 0);
    for (std::uint64_t id = 0; id < segments; ++id)
        length_mm[id] = lattice.segmentLengthMm(id);
    // Min-heap on (cost, id): pop order, and with it the parent forest,
    // is a function of the costs alone.
    using Entry = std::pair<double, std::uint64_t>;
    std::vector<Entry> open;
    std::vector<std::uint64_t> adjacent;

    CorridorResult result;
    result.paths.resize(entries.size());
    result.usage.assign(segments, 0);
    const std::vector<std::uint32_t> &usage = result.usage;
    for (std::size_t n = 0; n < entries.size(); ++n) {
        // Dijkstra from the entry to the nearest boundary segment; the
        // lattice is connected, so every net arrives.
        const std::uint64_t from = entries[n];
        requireConfig(from < segments, "corridor segment id out of range");
        const std::uint64_t search = n + 1;
        g[from] = traversalCost(length_mm[from], usage[from]);
        stamp[from] = search;
        parent[from] = from;
        open.assign(1, Entry{g[from], from});
        std::size_t expanded = 0;
        std::uint64_t goal = from;
        while (!open.empty()) {
            std::pop_heap(open.begin(), open.end(), std::greater<>{});
            const auto [cost, id] = open.back();
            open.pop_back();
            if (cost > g[id])
                continue; // stale queue entry
            ++expanded;
            if ((expanded & 0xFFF) == 0)
                cancel::poll("corridor");
            const SegRef ref = decode(lattice, id);
            if (onBoundary(lattice, ref)) {
                goal = id;
                break;
            }
            adjacent.clear();
            segmentsAround(lattice, ref, adjacent);
            for (std::uint64_t next : adjacent) {
                if (next == id)
                    continue;
                const double cand =
                    cost + traversalCost(length_mm[next], usage[next]);
                if (stamp[next] != search || cand < g[next]) {
                    g[next] = cand;
                    stamp[next] = search;
                    parent[next] = id;
                    open.emplace_back(cand, next);
                    std::push_heap(open.begin(), open.end(),
                                   std::greater<>{});
                }
            }
        }
        metrics::count("corridor.segments_expanded", expanded);

        // Walk back from the goal, then reverse: entry segment first.
        CorridorPath &path = result.paths[n];
        for (std::uint64_t at = goal;; at = parent[at]) {
            path.segments.push_back(at);
            path.lengthMm += length_mm[at];
            const std::uint32_t u = ++result.usage[at];
            result.maxSegmentUsage =
                std::max<std::size_t>(result.maxSegmentUsage, u);
            if (at == from)
                break;
        }
        std::reverse(path.segments.begin(), path.segments.end());
    }
    result.maxCorridorWidthMm =
        static_cast<double>(result.maxSegmentUsage) * kLinePitchMm;
    metrics::count("corridor.nets_routed", entries.size());
    return result;
}

CorridorDrcReport
checkCorridorDrc(const CorridorLattice &lattice,
                 const CorridorResult &result,
                 const std::vector<std::uint64_t> &entries)
{
    CorridorDrcReport report;
    const auto fail = [&report](std::string what) {
        report.clean = false;
        report.violations.push_back(std::move(what));
    };
    if (result.paths.size() != entries.size())
        fail("path count does not match net count");

    const std::uint64_t segments = lattice.segmentCount();
    std::vector<std::uint32_t> recount(segments, 0);
    const std::size_t nets =
        std::min(result.paths.size(), entries.size());
    for (std::size_t n = 0; n < nets; ++n) {
        const CorridorPath &path = result.paths[n];
        const std::string net = "net " + std::to_string(n);
        if (path.segments.empty()) {
            fail(net + ": unrouted");
            continue;
        }
        if (path.segments.front() != entries[n])
            fail(net + ": does not start at its entry segment");
        // Ids first: the adjacency and boundary queries decode each id
        // and would throw on one outside the lattice.
        bool ids_valid = true;
        for (std::uint64_t id : path.segments) {
            if (id < segments)
                ++recount[id];
            else
                ids_valid = false;
        }
        if (!ids_valid) {
            fail(net + ": references an invalid segment id");
            continue;
        }
        for (std::size_t k = 0; k + 1 < path.segments.size(); ++k) {
            const auto adj =
                lattice.adjacentSegments(path.segments[k]);
            if (std::find(adj.begin(), adj.end(),
                          path.segments[k + 1]) == adj.end()) {
                fail(net + ": leaves the corridor lattice between hops " +
                     std::to_string(k) + " and " + std::to_string(k + 1));
            }
        }
        if (!lattice.isBoundary(path.segments.back()))
            fail(net + ": ends inside the chip, not on the boundary");
    }
    if (recount != result.usage)
        fail("recorded segment usage does not match the routed paths");
    std::sort(report.violations.begin(), report.violations.end());
    return report;
}

} // namespace youtiao
