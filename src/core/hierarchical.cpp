#include "core/hierarchical.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/prng.hpp"
#include "multiplex/parallelism_index.hpp"
#include "multiplex/plan_merge.hpp"
#include "noise/crosstalk_data.hpp"
#include "noise/noise_model.hpp"

namespace youtiao {

namespace {

/** Clamped geometric bin of @p v over ascending cuts. */
std::size_t
binOf(double v, const std::vector<double> &cuts)
{
    const std::size_t bins = cuts.size() - 1;
    const auto it = std::upper_bound(cuts.begin() + 1, cuts.end() - 1, v);
    const auto bin = static_cast<std::size_t>(
        std::distance(cuts.begin() + 1, it));
    return std::min(bin, bins - 1);
}

/**
 * Half-width of the seam band within which qubits join the boundary
 * stitch, in median coupler spans: covers nearest and next-nearest
 * cross-seam neighbours.
 */
constexpr double kSeamRadiusSpans = 2.05;
/** Retune sweeps over the seam band (even passes move the higher-tile
 *  endpoint of a hot pair, odd passes the lower). */
constexpr std::size_t kMaxSeamPasses = 4;

/** Median coupler span (mm): the chip's effective device pitch. */
double
medianCouplerSpanMm(const ChipTopology &chip)
{
    std::vector<double> spans;
    spans.reserve(chip.couplerCount());
    for (const CouplerInfo &c : chip.couplers())
        spans.push_back(chip.physicalDistance(c.qubitA, c.qubitB));
    if (spans.empty()) {
        const Point box = chip.boundingBox();
        const double side = std::max(box.x, box.y);
        return std::max(
            1.0, side / std::sqrt(static_cast<double>(
                            std::max<std::size_t>(1, chip.qubitCount()))));
    }
    std::nth_element(spans.begin(),
                     spans.begin() + static_cast<long>(spans.size() / 2),
                     spans.end());
    return spans[spans.size() / 2];
}

/**
 * Multi-path topological distance hops * shortest-path-count between two
 * qubits, bounded to @p max_depth hops (the seam band only ever needs
 * the local neighbourhood; a full multiPathBfs per near-seam qubit would
 * be O(chip) each). Pairs farther than the bound read as 2x the bound --
 * far enough that the exponential crosstalk law floors out.
 */
double
localTopologicalDistance(const Graph &graph, std::size_t a, std::size_t b,
                         std::size_t max_depth)
{
    if (a == b)
        return 0.0;
    std::unordered_map<std::size_t, double> count;
    count[a] = 1.0;
    std::vector<std::size_t> frontier{a};
    std::unordered_map<std::size_t, double> next_count;
    for (std::size_t depth = 1; depth <= max_depth; ++depth) {
        next_count.clear();
        for (std::size_t v : frontier) {
            for (std::size_t n : graph.neighbors(v)) {
                if (count.find(n) != count.end())
                    continue; // reached at an earlier level
                next_count[n] += count[v];
            }
        }
        const auto hit = next_count.find(b);
        if (hit != next_count.end())
            return static_cast<double>(depth) * hit->second;
        frontier.clear();
        for (const auto &[v, c] : next_count) {
            count[v] = c;
            frontier.push_back(v);
        }
    }
    return 2.0 * static_cast<double>(max_depth);
}

/** Spatial-hash key of a position at @p cell granularity. */
std::uint64_t
hashCell(const Point &p, double cell)
{
    const auto ix = static_cast<std::int64_t>(std::floor(p.x / cell));
    const auto iy = static_cast<std::int64_t>(std::floor(p.y / cell));
    return (static_cast<std::uint64_t>(ix + (1ll << 30)) << 32) ^
           static_cast<std::uint64_t>(iy + (1ll << 30));
}

struct SeamNeighbor
{
    std::size_t other = 0;
    double crosstalk = 0.0;
};

} // namespace

TileMap
makeUniformTileMap(const ChipTopology &chip, std::size_t tile_size_qubits)
{
    requireConfig(chip.qubitCount() > 0, "cannot tile an empty chip");
    const std::size_t q_count = chip.qubitCount();

    double lo_x = std::numeric_limits<double>::infinity();
    double lo_y = lo_x;
    double hi_x = -lo_x;
    double hi_y = -lo_x;
    for (const QubitInfo &q : chip.qubits()) {
        lo_x = std::min(lo_x, q.position.x);
        lo_y = std::min(lo_y, q.position.y);
        hi_x = std::max(hi_x, q.position.x);
        hi_y = std::max(hi_y, q.position.y);
    }

    TileMap map;
    if (tile_size_qubits == 0 || tile_size_qubits >= q_count) {
        map.tilesX = 1;
        map.tilesY = 1;
    } else {
        const std::size_t tiles =
            (q_count + tile_size_qubits - 1) / tile_size_qubits;
        map.tilesX = static_cast<std::size_t>(
            std::ceil(std::sqrt(static_cast<double>(tiles))));
        map.tilesY = (tiles + map.tilesX - 1) / map.tilesX;
    }
    // Degenerate extents (all qubits on one line) still need a nonzero
    // cell width for the geometric assignment.
    const double width = std::max(hi_x - lo_x, 1e-9);
    const double height = std::max(hi_y - lo_y, 1e-9);
    map.xCutsMm.resize(map.tilesX + 1);
    map.yCutsMm.resize(map.tilesY + 1);
    for (std::size_t i = 0; i <= map.tilesX; ++i)
        map.xCutsMm[i] =
            lo_x + width * static_cast<double>(i) /
                       static_cast<double>(map.tilesX);
    for (std::size_t j = 0; j <= map.tilesY; ++j)
        map.yCutsMm[j] =
            lo_y + height * static_cast<double>(j) /
                       static_cast<double>(map.tilesY);

    map.tileOfQubit.resize(q_count);
    for (std::size_t q = 0; q < q_count; ++q) {
        const Point &p = chip.qubit(q).position;
        const std::size_t ix = binOf(p.x, map.xCutsMm);
        const std::size_t iy = binOf(p.y, map.yCutsMm);
        map.tileOfQubit[q] = iy * map.tilesX + ix;
    }
    return map;
}

void
validateTileMap(const TileMap &map, std::size_t qubit_count)
{
    requireConfig(map.tilesX >= 1 && map.tilesY >= 1,
                  "tile map needs at least one tile per axis");
    requireConfig(map.xCutsMm.size() == map.tilesX + 1 &&
                      map.yCutsMm.size() == map.tilesY + 1,
                  "tile map cut lists do not match the lattice shape");
    requireConfig(std::is_sorted(map.xCutsMm.begin(), map.xCutsMm.end()) &&
                      std::is_sorted(map.yCutsMm.begin(),
                                     map.yCutsMm.end()),
                  "tile map cuts must be ascending");
    requireConfig(map.tileOfQubit.size() == qubit_count,
                  "tile map does not cover every qubit exactly once");
    for (std::size_t t : map.tileOfQubit)
        requireConfig(t < map.tileCount(),
                      "tile map assigns a qubit to a nonexistent tile");
}

HierarchicalDesigner::HierarchicalDesigner(YoutiaoConfig config,
                                           HierarchicalConfig hierarchical)
    : config_(config), hier_(hierarchical)
{}

HierarchicalDesign
HierarchicalDesigner::designFromMeasurements(
    const ChipTopology &chip, const ChipCharacterization &data,
    double w_phy) const
{
    return valueOrThrow(designFromMeasurementsRobust(chip, data, w_phy));
}

HierarchicalDesign
HierarchicalDesigner::designSynthesized(const ChipTopology &chip,
                                        double w_phy) const
{
    return valueOrThrow(designSynthesizedRobust(chip, w_phy));
}

Expected<HierarchicalDesign, DesignError>
HierarchicalDesigner::designSynthesizedRobust(
    const ChipTopology &chip, double w_phy,
    DegradationReport *partial) const
{
    return designTilesRobust(chip, nullptr, w_phy, partial);
}

Expected<HierarchicalDesign, DesignError>
HierarchicalDesigner::designFromMeasurementsRobust(
    const ChipTopology &chip, const ChipCharacterization &data,
    double w_phy, DegradationReport *partial) const
{
    return designTilesRobust(chip, &data, w_phy, partial);
}

Expected<HierarchicalDesign, DesignError>
HierarchicalDesigner::designTilesRobust(const ChipTopology &chip,
                                        const ChipCharacterization *data,
                                        double w_phy,
                                        DegradationReport *partial) const
{
    std::atomic<std::size_t> done{0};
    std::size_t total = 0;
    try {
        return designTiles(chip,
                           makeUniformTileMap(chip, hier_.tileSizeQubits),
                           data, w_phy, &done, &total);
    } catch (const cancel::Cancelled &e) {
        if (partial != nullptr)
            partial->notes.push_back(
                "cancelled after " + std::to_string(done.load()) +
                " of " + std::to_string(total) + " tiles designed");
        return cancelledError(e)
            .with("tiles_designed", done.load())
            .with("tiles_total", total);
    } catch (const std::exception &e) {
        return DesignError(DesignStage::Validation, e.what());
    }
}

HierarchicalDesign
HierarchicalDesigner::designTiles(const ChipTopology &chip, TileMap map,
                                  const ChipCharacterization *data,
                                  double w_phy,
                                  std::atomic<std::size_t> *tiles_done,
                                  std::size_t *tiles_total) const
{
    const metrics::ScopedTimer timer("hier.design");
    validateTileMap(map, chip.qubitCount());
    requireConfig(data == nullptr ||
                      (data->xyCrosstalk.size() == chip.qubitCount() &&
                       data->zzCrosstalkMHz.size() == chip.qubitCount()),
                  "characterization does not match the chip");

    HierarchicalDesign out;
    out.map = std::move(map);

    // Tile extraction: qubits by geometric bin, couplers into the tile
    // holding both endpoints, stragglers onto the seam list.
    std::vector<std::vector<std::size_t>> tile_qubits(out.map.tileCount());
    for (std::size_t q = 0; q < chip.qubitCount(); ++q)
        tile_qubits[out.map.tileOfQubit[q]].push_back(q);
    for (std::size_t t = 0; t < out.map.tileCount(); ++t) {
        if (tile_qubits[t].empty())
            continue;
        HierarchicalTile tile;
        tile.ix = t % out.map.tilesX;
        tile.iy = t / out.map.tilesX;
        tile.qubits = std::move(tile_qubits[t]);
        out.tiles.push_back(std::move(tile));
    }
    requireConfig(!out.tiles.empty(), "tile map left every tile empty");
    out.tileOfQubit.resize(chip.qubitCount());
    for (std::size_t i = 0; i < out.tiles.size(); ++i)
        for (std::size_t q : out.tiles[i].qubits)
            out.tileOfQubit[q] = i;

    std::vector<std::size_t> local_of_qubit(chip.qubitCount());
    for (const HierarchicalTile &tile : out.tiles)
        for (std::size_t l = 0; l < tile.qubits.size(); ++l)
            local_of_qubit[tile.qubits[l]] = l;

    for (std::size_t c = 0; c < chip.couplerCount(); ++c) {
        const CouplerInfo &info = chip.coupler(c);
        const std::size_t ta = out.tileOfQubit[info.qubitA];
        const std::size_t tb = out.tileOfQubit[info.qubitB];
        if (ta == tb)
            out.tiles[ta].couplers.push_back(c);
        else
            out.seamCouplers.push_back(c);
    }

    // Build each tile's sub-chip: global coordinates, local indices,
    // original order (the differential contract depends on it).
    for (HierarchicalTile &tile : out.tiles) {
        tile.chip = ChipTopology(chip.name() + " tile (" +
                                 std::to_string(tile.ix) + "," +
                                 std::to_string(tile.iy) + ")");
        for (std::size_t q : tile.qubits)
            tile.chip.addQubit(chip.qubit(q));
        for (std::size_t c : tile.couplers) {
            const CouplerInfo &info = chip.coupler(c);
            tile.chip.addCoupler(local_of_qubit[info.qubitA],
                                 local_of_qubit[info.qubitB],
                                 info.position);
        }
    }

    // Per-tile designs on the pool. Seeds: a single tile inherits the
    // master seed untouched (bit-identity with the flat path); multiple
    // tiles draw independent streams via taskSeed.
    const bool single_tile = out.tiles.size() == 1;
    if (tiles_total != nullptr)
        *tiles_total = out.tiles.size();
    std::vector<std::size_t> order(out.tiles.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::vector<YoutiaoDesign> designs = parallelMap(
        order, [&](std::size_t t) {
            const HierarchicalTile &tile = out.tiles[t];
            cancel::poll("hier.tile");
            YoutiaoConfig tile_config = config_;
            tile_config.seed = single_tile
                                   ? config_.seed
                                   : taskSeed(config_.seed, t);

            ChipCharacterization tile_data;
            if (data != nullptr) {
                const std::size_t n = tile.qubits.size();
                tile_data.xyCrosstalk = SymmetricMatrix(n);
                tile_data.zzCrosstalkMHz = SymmetricMatrix(n);
                for (std::size_t i = 0; i < n; ++i) {
                    for (std::size_t j = i; j < n; ++j) {
                        tile_data.xyCrosstalk(i, j) = data->xyCrosstalk(
                            tile.qubits[i], tile.qubits[j]);
                        tile_data.zzCrosstalkMHz(i, j) =
                            data->zzCrosstalkMHz(tile.qubits[i],
                                                 tile.qubits[j]);
                    }
                }
            } else {
                Prng prng(taskSeed(config_.seed, 0xC0FFEE00ull + t));
                tile_data = characterizeChip(tile.chip, prng);
            }

            const YoutiaoDesigner designer(tile_config);
            auto result = designer.designFromMeasurementsRobust(
                tile.chip, tile_data, w_phy);
            if (!result.hasValue())
                throwDesignError(result.error().with("tile", t));
            if (tiles_done != nullptr)
                tiles_done->fetch_add(1, std::memory_order_relaxed);
            return std::move(result.value());
        });
    for (std::size_t t = 0; t < out.tiles.size(); ++t)
        out.tiles[t].design = std::move(designs[t]);
    // Merge barrier: a tile polls only before it starts, so a deadline
    // that expires while the last tiles are designed is observed here,
    // before the merge and seam stitch.
    cancel::poll("hier.merge");

    if (single_tile) {
        // Identity maps: the merged design IS the tile design, field for
        // field -- the hierarchy is pure plumbing (tested bit-identical
        // against the flat designer).
        out.merged = out.tiles[0].design;
        metrics::count("hier.tiles_designed", 1);
        return out;
    }

    // Lift and concatenate the tile plans.
    std::vector<TilePlanRefs> refs;
    refs.reserve(out.tiles.size());
    for (const HierarchicalTile &tile : out.tiles) {
        TilePlanRefs ref;
        ref.qubitMap = &tile.qubits;
        ref.couplerMap = &tile.couplers;
        ref.xy = &tile.design.xyPlan;
        ref.frequency = &tile.design.frequencyPlan;
        ref.z = &tile.design.zPlan;
        ref.readoutLines = &tile.design.readoutPlan;
        refs.push_back(ref);
    }
    const std::size_t q_count = chip.qubitCount();
    out.merged.xyPlan = mergeFdmPlans(q_count, refs, &TilePlanRefs::xy);
    out.merged.frequencyPlan = mergeFrequencyPlans(q_count, refs);
    out.merged.zPlan =
        mergeTdmPlans(q_count, chip.couplerCount(), refs);
    out.merged.readoutPlan =
        mergeFdmPlans(q_count, refs, &TilePlanRefs::readoutLines);
    out.merged.readout = planReadout(out.merged.readoutPlan);

    // Seam couplers get their own always-realizable groups.
    appendTdmGroups(out.merged.zPlan,
                    packSeamCouplerGroups(chip, out.seamCouplers,
                                          parallelismIndices(chip),
                                          config_.tdm));

    // Merged partition: tile regions concatenated in tile order.
    out.merged.partition.regionOfQubit.assign(q_count, 0);
    for (const HierarchicalTile &tile : out.tiles) {
        const ChipPartition &part = tile.design.partition;
        const std::size_t base = out.merged.partition.regions.size();
        for (const auto &region : part.regions) {
            std::vector<std::size_t> lifted;
            lifted.reserve(region.size());
            for (std::size_t q : region)
                lifted.push_back(tile.qubits[q]);
            out.merged.partition.regions.push_back(std::move(lifted));
        }
        for (std::size_t q = 0; q < tile.qubits.size(); ++q)
            out.merged.partition.regionOfQubit[tile.qubits[q]] =
                base + part.regionOfQubit[q];
        for (std::size_t seed : part.seeds)
            out.merged.partition.seeds.push_back(tile.qubits[seed]);
        out.merged.partition.swapCount += part.swapCount;
    }

    // Aggregate degradation: tile concessions, remapped and prefixed.
    DegradationReport &agg = out.merged.degradation;
    for (std::size_t t = 0; t < out.tiles.size(); ++t) {
        const HierarchicalTile &tile = out.tiles[t];
        const DegradationReport &d = tile.design.degradation;
        for (std::size_t q : d.excludedQubits)
            agg.excludedQubits.push_back(tile.qubits[q]);
        for (std::size_t c : d.excludedCouplers)
            agg.excludedCouplers.push_back(tile.couplers[c]);
        agg.allocationAttempts =
            std::max(agg.allocationAttempts, d.allocationAttempts);
        agg.fdmCapacityUsed =
            std::max(agg.fdmCapacityUsed, d.fdmCapacityUsed);
        agg.demuxFallbackDevices += d.demuxFallbackDevices;
        agg.dedicatedNetFallbacks += d.dedicatedNetFallbacks;
        agg.costDeltaUsd += d.costDeltaUsd;
        for (const std::string &note : d.notes)
            agg.notes.push_back("tile " + std::to_string(t) + ": " +
                                note);
    }
    std::sort(agg.excludedQubits.begin(), agg.excludedQubits.end());
    std::sort(agg.excludedCouplers.begin(), agg.excludedCouplers.end());

    if (data != nullptr) {
        out.merged.predictedXy = data->xyCrosstalk;
        out.merged.predictedZzMHz = data->zzCrosstalkMHz;
    }

    // Boundary-aware frequency stitch across the seams.
    stitchSeamsImpl(chip, data, out);
    cancel::poll("hier.finish");

    out.merged.counts = multiplexedWiringCounts(
        q_count, out.merged.xyPlan, out.merged.zPlan, config_.cost);
    out.merged.costUsd = wiringCostUsd(out.merged.counts);

    metrics::count("hier.tiles_designed", out.tiles.size());
    metrics::count("hier.seam_couplers", out.seamCouplers.size());
    metrics::count("hier.seam_retunes", out.seamRetunes);
    log::info("hierarchical design finished",
              {{"qubits", chip.qubitCount()},
               {"tiles", out.tiles.size()},
               {"seam_couplers", out.seamCouplers.size()},
               {"seam_retunes", out.seamRetunes},
               {"cost_usd", out.merged.costUsd}});
    return out;
}

void
HierarchicalDesigner::stitchSeamsImpl(const ChipTopology &chip,
                                      const ChipCharacterization *data,
                                      HierarchicalDesign &out) const
{
    const metrics::ScopedTimer timer("hier.seam_stitch");
    const TileMap &map = out.map;
    const double radius = kSeamRadiusSpans * medianCouplerSpanMm(chip);
    out.seamRadiusMmUsed = radius;

    std::vector<double> x_cuts(map.xCutsMm.begin() + 1,
                               map.xCutsMm.end() - 1);
    std::vector<double> y_cuts(map.yCutsMm.begin() + 1,
                               map.yCutsMm.end() - 1);
    if (x_cuts.empty() && y_cuts.empty())
        return;

    // Near-seam qubits, then candidate pairs via a spatial hash. The
    // membership threshold is the full pair radius: a cross-tile pair
    // at most pair_radius apart has both endpoints within pair_radius
    // of the separating cut (|a.x - cut| + |b.x - cut| <= |a.x - b.x|),
    // so this band provably catches every pair the final audit scores.
    const double pair_radius = 2.0 * radius;
    std::vector<std::size_t> near;
    for (std::size_t q = 0; q < chip.qubitCount(); ++q) {
        const Point &p = chip.qubit(q).position;
        bool close = false;
        for (double cut : x_cuts) {
            if (std::abs(p.x - cut) <= pair_radius) {
                close = true;
                break;
            }
        }
        if (!close) {
            for (double cut : y_cuts) {
                if (std::abs(p.y - cut) <= pair_radius) {
                    close = true;
                    break;
                }
            }
        }
        if (close)
            near.push_back(q);
    }
    if (near.empty())
        return;
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> buckets;
    for (std::size_t q : near)
        buckets[hashCell(chip.qubit(q).position, pair_radius)].push_back(
            q);

    const CrosstalkGroundTruth truth = xyGroundTruth();
    const Graph &graph = chip.qubitGraph();
    const auto crosstalkOf = [&](std::size_t a, std::size_t b) {
        if (data != nullptr)
            return data->xyCrosstalk(a, b);
        const double d_phy = chip.physicalDistance(a, b);
        const double d_top = localTopologicalDistance(graph, a, b, 4);
        return groundTruthValue(truth, d_phy, d_top);
    };

    std::vector<std::pair<std::size_t, std::size_t>> cross_pairs;
    std::vector<std::vector<SeamNeighbor>> adjacency(chip.qubitCount());
    for (std::size_t a : near) {
        const Point &pa = chip.qubit(a).position;
        const auto cx =
            static_cast<std::int64_t>(std::floor(pa.x / pair_radius));
        const auto cy =
            static_cast<std::int64_t>(std::floor(pa.y / pair_radius));
        for (std::int64_t dx = -1; dx <= 1; ++dx) {
            for (std::int64_t dy = -1; dy <= 1; ++dy) {
                const Point probe{
                    (static_cast<double>(cx + dx) + 0.5) * pair_radius,
                    (static_cast<double>(cy + dy) + 0.5) * pair_radius};
                const auto it = buckets.find(hashCell(probe, pair_radius));
                if (it == buckets.end())
                    continue;
                for (std::size_t b : it->second) {
                    if (b <= a)
                        continue;
                    if (distance(pa, chip.qubit(b).position) >
                        pair_radius)
                        continue;
                    const double xt = crosstalkOf(a, b);
                    adjacency[a].push_back(SeamNeighbor{b, xt});
                    adjacency[b].push_back(SeamNeighbor{a, xt});
                    if (out.tileOfQubit[a] != out.tileOfQubit[b])
                        cross_pairs.emplace_back(a, b);
                }
            }
        }
    }
    std::sort(cross_pairs.begin(), cross_pairs.end());
    out.seamPairsChecked = cross_pairs.size();
    if (cross_pairs.empty())
        return;

    const NoiseModel noise(config_.noise);
    FrequencyPlan &plan = out.merged.frequencyPlan;

    const auto pairCost = [&](std::size_t a, std::size_t b, double xt) {
        return xt * noise.spectralOverlap(
                        std::abs(plan.frequencyGHz[a] -
                                 plan.frequencyGHz[b]));
    };
    const auto objective = [&](std::size_t q, double f) {
        double sum = 0.0;
        for (const SeamNeighbor &n : adjacency[q])
            sum += n.crosstalk *
                   noise.spectralOverlap(
                       std::abs(f - plan.frequencyGHz[n.other]));
        return sum;
    };

    // Retune sweeps: the offending pair's qubit in the higher-indexed
    // tile scans its own zone for the cell minimizing its local seam
    // objective; odd passes work the lower-tile endpoint instead, so a
    // pair whose first qubit is boxed in by its own neighbours still has
    // a degree of freedom. Deterministic: pairs in ascending order,
    // cells in ascending order, strict improvement required.
    for (std::size_t pass = 0; pass < kMaxSeamPasses; ++pass) {
        cancel::poll("hier.seam_stitch");
        std::size_t retunes_this_pass = 0;
        for (const auto &[a, b] : cross_pairs) {
            double xt = 0.0;
            for (const SeamNeighbor &n : adjacency[a]) {
                if (n.other == b) {
                    xt = n.crosstalk;
                    break;
                }
            }
            if (pairCost(a, b, xt) <= kSeamCrosstalkEpsilon)
                continue;
            const bool pick_high = pass % 2 == 0;
            const std::size_t q =
                (out.tileOfQubit[a] > out.tileOfQubit[b]) == pick_high
                    ? a
                    : b;
            const std::size_t tile = out.tileOfQubit[q];
            const XyLattice lattice(
                out.tiles[tile].design.frequencyPlan.zoneCount);
            const std::size_t zone = plan.zoneOfQubit[q];

            double best = objective(q, plan.frequencyGHz[q]);
            double best_f = plan.frequencyGHz[q];
            std::size_t best_cell = plan.cellOfQubit[q];
            bool improved = false;
            for (std::size_t cell = 0; cell < lattice.cellsPerZone;
                 ++cell) {
                const double f = lattice.centreGHz(zone, cell);
                if (isMaskedGHz(f, config_.frequency.maskedBandsGHz))
                    continue;
                // Keep cells distinct from same-tile, same-zone seam
                // neighbours (the tile allocator placed everyone else).
                bool collides = false;
                for (const SeamNeighbor &n : adjacency[q]) {
                    if (out.tileOfQubit[n.other] == tile &&
                        plan.zoneOfQubit[n.other] == zone &&
                        std::abs(plan.frequencyGHz[n.other] - f) <
                            0.5 * kXyCellGHz) {
                        collides = true;
                        break;
                    }
                }
                if (collides)
                    continue;
                const double cost = objective(q, f);
                if (cost + 1e-15 < best) {
                    best = cost;
                    best_f = f;
                    best_cell = cell;
                    improved = true;
                }
            }
            if (improved) {
                plan.frequencyGHz[q] = best_f;
                plan.cellOfQubit[q] = best_cell;
                ++retunes_this_pass;
            }
        }
        out.seamRetunes += retunes_this_pass;
        if (retunes_this_pass == 0)
            break;
    }

    // Final audit: the residual cross-seam cost joins the merged
    // objective; anything still above epsilon is a recorded concession.
    double cross_cost = 0.0;
    for (const auto &[a, b] : cross_pairs) {
        double xt = 0.0;
        for (const SeamNeighbor &n : adjacency[a]) {
            if (n.other == b) {
                xt = n.crosstalk;
                break;
            }
        }
        const double cost = pairCost(a, b, xt);
        cross_cost += cost;
        out.maxSeamCrosstalk = std::max(out.maxSeamCrosstalk, cost);
        if (cost > kSeamCrosstalkEpsilon)
            ++out.seamViolationsUnresolved;
    }
    plan.crosstalkCost += cross_cost;
    if (out.seamViolationsUnresolved > 0) {
        out.merged.degradation.notes.push_back(
            "seam stitch left " +
            std::to_string(out.seamViolationsUnresolved) +
            " cross-seam pairs above epsilon (worst " +
            std::to_string(out.maxSeamCrosstalk) + ")");
    }
}

ChipRoutingConfig
tunedTileRoutingConfig()
{
    ChipRoutingConfig config;
    config.grid.cellMm = 0.08;
    config.grid.marginMm = 1.0;
    return config;
}

bool
HierarchicalRouting::clean() const
{
    if (failedConnections > 0 || corridor.failedNets > 0 ||
        !corridorDrc.clean)
        return false;
    for (const DrcReport &drc : tileDrc) {
        if (!drc.clean)
            return false;
    }
    return true;
}

HierarchicalRouting
routeHierarchical(const ChipTopology &chip,
                  const HierarchicalDesign &design,
                  const HierarchicalRoutingConfig &config)
{
    const metrics::ScopedTimer timer("hier.route");
    requireConfig(!design.tiles.empty(),
                  "hierarchical design has no tiles to route");

    HierarchicalRouting out;
    out.lattice =
        makeCorridorLattice(design.map.xCutsMm, design.map.yCutsMm);

    // Build every tile's nets, then budget each tile's A* arena on the
    // grid its router will lay: a tile that would not fit the bound fails
    // fast with an actionable message instead of thrashing mid-route.
    std::vector<std::size_t> order(design.tiles.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    const std::vector<std::vector<NetSpec>> tile_nets =
        parallelMap(order, [&](std::size_t t) {
            const HierarchicalTile &tile = design.tiles[t];
            return buildWiringNets(tile.chip, tile.design.xyPlan,
                                   tile.design.zPlan,
                                   tile.design.readoutPlan, config.tile);
        });
    for (std::size_t t = 0; t < design.tiles.size(); ++t) {
        const std::size_t bytes = GoalDirectedArena::bytesFor(
            routingGridCells(design.tiles[t].chip, tile_nets[t],
                             config.tile));
        out.peakArenaBytes = std::max(out.peakArenaBytes, bytes);
        requireConfig(
            bytes <= config.maxArenaBytes,
            "tile " + std::to_string(t) + " routing arena (" +
                std::to_string(bytes) +
                " bytes) exceeds the budget; use smaller tiles or "
                "coarser routing cells");
    }

    struct TileRoute
    {
        RoutedWiring wiring;
        DrcReport drc;
    };
    std::vector<TileRoute> routed = parallelMap(
        order, [&](std::size_t t) {
            cancel::poll("hier.route_tile");
            TileRoute route;
            route.wiring = routeTileWithFallback(design.tiles[t].chip,
                                                 tile_nets[t], config.tile);
            const ChipRoutingResult &result = route.wiring.result;
            requireInternal(result.grid.has_value(),
                            "tile routing returned no grid");
            route.drc = checkRoutingDrc(*result.grid, result.netCount,
                                        result.crossovers);
            return route;
        });

    // Corridor entries: every tile net enters at the lattice segment
    // nearest its perimeter interface pad; every seam TDM group enters
    // from its first endpoint's tile at the group centroid.
    for (std::size_t t = 0; t < design.tiles.size(); ++t) {
        const HierarchicalTile &tile = design.tiles[t];
        const ChipRoutingResult &result = routed[t].wiring.result;
        out.totalNets += result.netCount;
        out.failedConnections += result.failedConnections;
        out.totalLengthMm += result.totalLengthMm;
        for (std::size_t n = 0; n < result.netCount; ++n) {
            const Point iface = n < result.interfaces.size()
                                    ? result.interfaces[n]
                                    : chip.qubit(tile.qubits[0]).position;
            out.corridorEntries.push_back(out.lattice.entrySegmentForTile(
                tile.ix, tile.iy, iface));
        }
    }
    std::size_t tile_groups = 0;
    for (const HierarchicalTile &tile : design.tiles)
        tile_groups += tile.design.zPlan.groups.size();
    const std::size_t q_count = chip.qubitCount();
    for (std::size_t g = tile_groups;
         g < design.merged.zPlan.groups.size(); ++g) {
        const TdmGroup &group = design.merged.zPlan.groups[g];
        requireInternal(!group.devices.empty(), "empty seam TDM group");
        Point centroid{0.0, 0.0};
        for (std::size_t d : group.devices) {
            const Point p = chip.devicePosition(d);
            centroid.x += p.x;
            centroid.y += p.y;
        }
        centroid.x /= static_cast<double>(group.devices.size());
        centroid.y /= static_cast<double>(group.devices.size());
        const std::size_t c = group.devices.front() - q_count;
        const std::size_t home =
            design.tileOfQubit[chip.coupler(c).qubitA];
        out.corridorEntries.push_back(out.lattice.entrySegmentForTile(
            design.tiles[home].ix, design.tiles[home].iy, centroid));
        ++out.totalNets;
    }

    out.corridor = routeCorridors(out.lattice, out.corridorEntries);
    out.corridorDrc =
        checkCorridorDrc(out.lattice, out.corridor, out.corridorEntries);
    for (const CorridorPath &path : out.corridor.paths)
        out.totalLengthMm += path.lengthMm;

    out.tiles.reserve(routed.size());
    out.tileDrc.reserve(routed.size());
    for (TileRoute &route : routed) {
        out.tiles.push_back(std::move(route.wiring));
        out.tileDrc.push_back(std::move(route.drc));
    }
    metrics::count("hier.nets_routed", out.totalNets);
    log::info("hierarchical routing finished",
              {{"tiles", design.tiles.size()},
               {"nets", out.totalNets},
               {"failed", out.failedConnections},
               {"corridor_failed", out.corridor.failedNets},
               {"length_mm", out.totalLengthMm}});
    return out;
}

} // namespace youtiao
