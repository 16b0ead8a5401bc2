/**
 * @file
 * Hierarchical scale-out suite (DESIGN.md section 10).
 *
 * The correctness backbone is differential: with a single tile spanning
 * the chip, the hierarchical designer must reproduce the flat designer
 * bit for bit. Multi-tile runs are checked against the stitched
 * invariants instead: no cross-seam pair above the seam epsilon, every
 * corridor path inside the lattice and ending at the chip boundary,
 * merged plans internally consistent, deterministic across thread
 * counts, and the merged coax tally inside the analytic cross-check
 * band.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "chip/topology_builder.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/prng.hpp"
#include "core/design_bin.hpp"
#include "core/hierarchical.hpp"
#include "core/scalability.hpp"
#include "core/serialization.hpp"
#include "core/youtiao.hpp"
#include "multiplex/tdm.hpp"
#include "noise/crosstalk_data.hpp"
#include "noise/noise_model.hpp"
#include "routing/astar_router.hpp"
#include "routing/corridor_router.hpp"

namespace youtiao {
namespace {

ChipCharacterization
characterize(const ChipTopology &chip, std::uint64_t seed = 7)
{
    Prng prng(seed);
    return characterizeChip(chip, prng);
}

// ---------------------------------------------------------------- tile map

TEST(TileMap, SingleTileWhenSizeIsZeroOrCoversChip)
{
    const ChipTopology chip = makeGridWithQubitCount(100);
    for (std::size_t size : {std::size_t{0}, std::size_t{100},
                             std::size_t{5000}}) {
        const TileMap map = makeUniformTileMap(chip, size);
        EXPECT_EQ(map.tileCount(), 1u);
        for (std::size_t t : map.tileOfQubit)
            EXPECT_EQ(t, 0u);
    }
}

TEST(TileMap, UniformMapCoversEveryQubitGeometrically)
{
    const ChipTopology chip = makeGridWithQubitCount(144);
    const TileMap map = makeUniformTileMap(chip, 36);
    EXPECT_EQ(map.tilesX, 2u);
    EXPECT_EQ(map.tilesY, 2u);
    validateTileMap(map, chip.qubitCount());
    // Geometric assignment: every qubit sits inside its tile's cell
    // (half-open with the last bin clamped).
    for (std::size_t q = 0; q < chip.qubitCount(); ++q) {
        const std::size_t ix = map.tileOfQubit[q] % map.tilesX;
        const std::size_t iy = map.tileOfQubit[q] / map.tilesX;
        const Point &p = chip.qubit(q).position;
        EXPECT_GE(p.x, map.xCutsMm[ix] - 1e-9);
        EXPECT_LE(p.x, map.xCutsMm[ix + 1] + 1e-9);
        EXPECT_GE(p.y, map.yCutsMm[iy] - 1e-9);
        EXPECT_LE(p.y, map.yCutsMm[iy + 1] + 1e-9);
    }
}

TEST(TileMap, ValidateRejectsMalformedMaps)
{
    const ChipTopology chip = makeGridWithQubitCount(25);
    TileMap map = makeUniformTileMap(chip, 9);
    validateTileMap(map, 25);

    TileMap bad = map;
    bad.tileOfQubit[3] = bad.tileCount();
    EXPECT_THROW(validateTileMap(bad, 25), ConfigError);

    bad = map;
    bad.tileOfQubit.pop_back();
    EXPECT_THROW(validateTileMap(bad, 25), ConfigError);

    bad = map;
    std::swap(bad.xCutsMm.front(), bad.xCutsMm.back());
    EXPECT_THROW(validateTileMap(bad, 25), ConfigError);

    bad = map;
    bad.xCutsMm.pop_back();
    EXPECT_THROW(validateTileMap(bad, 25), ConfigError);
}

// ------------------------------------------------- tile map serialization

TEST(TileMapIo, RoundTripsExactly)
{
    const ChipTopology chip = makeGridWithQubitCount(60);
    const TileMap map = makeUniformTileMap(chip, 16);
    const TileMap back = tileMapFromString(tileMapToString(map));
    EXPECT_EQ(back.tilesX, map.tilesX);
    EXPECT_EQ(back.tilesY, map.tilesY);
    EXPECT_EQ(back.xCutsMm, map.xCutsMm);
    EXPECT_EQ(back.yCutsMm, map.yCutsMm);
    EXPECT_EQ(back.tileOfQubit, map.tileOfQubit);
    // Byte-stable: save(load(s)) == s.
    EXPECT_EQ(tileMapToString(back), tileMapToString(map));
}

TEST(TileMapIo, TruncatedAndGarbledSpecsAreConfigErrors)
{
    const ChipTopology chip = makeGridWithQubitCount(60);
    const std::string good = tileMapToString(makeUniformTileMap(chip, 16));

    // Every strict prefix must fail structurally -- never crash, never
    // bad_alloc (the token budget bounds every count before a resize).
    // good.size() - 1 is just the trailing newline stripped, which is
    // still a complete map, so stop one short of it.
    for (std::size_t len = 0; len + 1 < good.size(); len += 7) {
        const std::string cut = good.substr(0, len);
        EXPECT_THROW(tileMapFromString(cut), ConfigError)
            << "prefix length " << len;
    }

    // A corrupt qubit count must die on the token budget, not allocate.
    EXPECT_THROW(tileMapFromString("youtiao-tiles 1\nlattice 2 2\n"
                                   "xcuts.mm 0 1 2\nycuts.mm 0 1 2\n"
                                   "map 99999999999 0\n"),
                 ConfigError);
    // An implausible lattice dies before the cut lists are sized.
    EXPECT_THROW(tileMapFromString("youtiao-tiles 1\n"
                                   "lattice 99999999 99999999\n"),
                 ConfigError);
    // Wrong version, wrong keys, non-numeric junk.
    EXPECT_THROW(tileMapFromString("youtiao-tiles 2\n"), ConfigError);
    EXPECT_THROW(tileMapFromString("youtiao-design 1\n"), ConfigError);
    EXPECT_THROW(tileMapFromString("youtiao-tiles 1\nlattice x y\n"),
                 ConfigError);
    // Out-of-range tile assignment caught by validateTileMap.
    EXPECT_THROW(tileMapFromString("youtiao-tiles 1\nlattice 1 1\n"
                                   "xcuts.mm 0 1\nycuts.mm 0 1\n"
                                   "map 2 0 7\n"),
                 ConfigError);
}

// ------------------------------------------------------------ bit identity

TEST(HierarchicalDesign, SingleTileIsBitIdenticalToFlatDesigner)
{
    // The differential contract: tile-size = chip (via 0) must reproduce
    // the flat fit-free pipeline exactly, field for field.
    const ChipTopology chip = makeGridWithQubitCount(100);
    const ChipCharacterization data = characterize(chip);
    YoutiaoConfig config;

    const YoutiaoDesigner flat(config);
    const YoutiaoDesign expected = flat.designFromMeasurements(chip, data);

    HierarchicalConfig hier;
    hier.tileSizeQubits = 0;
    const HierarchicalDesigner designer(config, hier);
    const HierarchicalDesign actual =
        designer.designFromMeasurements(chip, data);

    ASSERT_EQ(actual.tiles.size(), 1u);
    EXPECT_TRUE(actual.seamCouplers.empty());
    EXPECT_EQ(actual.seamRetunes, 0u);

    // designToString covers plans, predictions, counts and cost; the
    // fields it skips are compared directly.
    EXPECT_EQ(designToString(actual.merged), designToString(expected));
    EXPECT_EQ(actual.merged.partition.regionOfQubit,
              expected.partition.regionOfQubit);
    EXPECT_EQ(actual.merged.partition.seeds, expected.partition.seeds);
    EXPECT_EQ(actual.merged.frequencyPlan.crosstalkCost,
              expected.frequencyPlan.crosstalkCost);
    EXPECT_TRUE(actual.merged.degradation.empty());
}

// ---------------------------------------------------------- seam stitching

TEST(HierarchicalDesign, BoundaryStitchKeepsSeamsBelowEpsilon)
{
    const ChipTopology chip = makeGridWithQubitCount(144);
    const ChipCharacterization data = characterize(chip, 11);
    YoutiaoConfig config;
    HierarchicalConfig hier;
    hier.tileSizeQubits = 36;
    const HierarchicalDesigner designer(config, hier);
    const HierarchicalDesign design =
        designer.designFromMeasurements(chip, data);

    ASSERT_EQ(design.tiles.size(), 4u);
    EXPECT_GT(design.seamPairsChecked, 0u);
    EXPECT_EQ(design.seamViolationsUnresolved, 0u);
    EXPECT_LE(design.maxSeamCrosstalk, hier.seamCrosstalkEpsilon);
    EXPECT_TRUE(design.merged.degradation.empty());

    // Independent recompute: every measured cross-tile pair within the
    // seam radius must sit at or below the reported maximum.
    const NoiseModel noise(config.noise);
    const FrequencyPlan &plan = design.merged.frequencyPlan;
    double worst = 0.0;
    for (std::size_t a = 0; a < chip.qubitCount(); ++a) {
        for (std::size_t b = a + 1; b < chip.qubitCount(); ++b) {
            if (design.tileOfQubit[a] == design.tileOfQubit[b])
                continue;
            if (chip.physicalDistance(a, b) >
                2.0 * design.seamRadiusMmUsed)
                continue;
            worst = std::max(
                worst, data.xyCrosstalk(a, b) *
                           noise.spectralOverlap(std::abs(
                               plan.frequencyGHz[a] -
                               plan.frequencyGHz[b])));
        }
    }
    EXPECT_DOUBLE_EQ(worst, design.maxSeamCrosstalk);
    EXPECT_LE(worst, hier.seamCrosstalkEpsilon);
}

TEST(HierarchicalDesign, MergedPlansAreInternallyConsistent)
{
    const ChipTopology chip = makeGridWithQubitCount(144);
    const ChipCharacterization data = characterize(chip, 11);
    HierarchicalConfig hier;
    hier.tileSizeQubits = 36;
    const HierarchicalDesigner designer({}, hier);
    const HierarchicalDesign design =
        designer.designFromMeasurements(chip, data);
    const YoutiaoDesign &merged = design.merged;

    // Every qubit on exactly one XY line and one feedline.
    std::vector<bool> seen(chip.qubitCount(), false);
    for (const auto &line : merged.xyPlan.lines) {
        for (std::size_t q : line) {
            ASSERT_LT(q, chip.qubitCount());
            EXPECT_FALSE(seen[q]);
            seen[q] = true;
        }
    }
    for (std::size_t q = 0; q < chip.qubitCount(); ++q)
        EXPECT_TRUE(seen[q]) << "qubit " << q << " missing from XY plan";

    // Every device in exactly one TDM group, and the seam groups keep
    // the plan gate-realizable (no two couplers of a gate triple share
    // a DEMUX).
    std::vector<std::size_t> device_groups(chip.deviceCount(), 0);
    for (const TdmGroup &group : merged.zPlan.groups)
        for (std::size_t d : group.devices) {
            ASSERT_LT(d, chip.deviceCount());
            ++device_groups[d];
        }
    for (std::size_t d = 0; d < chip.deviceCount(); ++d)
        EXPECT_EQ(device_groups[d], 1u) << "device " << d;
    EXPECT_TRUE(allGatesRealizable(chip, merged.zPlan));

    // Round-trips through the design serializer (which re-validates the
    // plan cross-references on load).
    EXPECT_NO_THROW(designFromString(designToString(merged)));
}

TEST(HierarchicalDesign, WritersRefuseMergeWithoutPredictions)
{
    // The synthesized merge carries no chip-wide crosstalk predictions,
    // which both loaders reject; the writers must refuse it at save
    // time rather than emit a file that cannot be read back.
    const ChipTopology chip = makeSquareGrid(8, 8);
    HierarchicalConfig hier;
    hier.tileSizeQubits = 16;
    const HierarchicalDesigner designer({}, hier);
    const HierarchicalDesign design = designer.designSynthesized(chip);
    ASSERT_EQ(design.tiles.size(), 4u);
    ASSERT_EQ(design.merged.predictedXy.size(), 0u);

    std::ostringstream out;
    EXPECT_THROW(saveDesign(out, design.merged), ConfigError);
    EXPECT_TRUE(out.str().empty());
    EXPECT_THROW((void)designToString(design.merged), ConfigError);
    EXPECT_THROW((void)designToBinary(design.merged), ConfigError);
    // Each tile is a complete design and still saves.
    EXPECT_NO_THROW((void)designToBinary(design.tiles[0].design));
}

TEST(HierarchicalDesign, DeterministicAcrossThreadCounts)
{
    const ChipTopology chip = makeGridWithQubitCount(144);
    const ChipCharacterization data = characterize(chip, 3);
    HierarchicalConfig hier;
    hier.tileSizeQubits = 36;
    const HierarchicalDesigner designer({}, hier);

    std::vector<std::string> renders;
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        ThreadPool::setGlobalThreadCount(threads);
        const HierarchicalDesign design =
            designer.designFromMeasurements(chip, data);
        renders.push_back(designToString(design.merged));
    }
    ThreadPool::setGlobalThreadCount(0);
    EXPECT_EQ(renders[0], renders[1]);
}

// ---------------------------------------------------------------- routing

TEST(HierarchicalRouting, TilesAndCorridorsAreDrcClean)
{
    const ChipTopology chip = makeGridWithQubitCount(100);
    const ChipCharacterization data = characterize(chip, 5);
    HierarchicalConfig hier;
    hier.tileSizeQubits = 25;
    const HierarchicalDesigner designer({}, hier);
    const HierarchicalDesign design =
        designer.designFromMeasurements(chip, data);
    ASSERT_EQ(design.tiles.size(), 4u);

    const HierarchicalRouting routing = routeHierarchical(chip, design);
    EXPECT_TRUE(routing.clean());
    EXPECT_EQ(routing.failedConnections, 0u);
    EXPECT_EQ(routing.corridor.failedNets, 0u);
    for (const DrcReport &drc : routing.tileDrc)
        EXPECT_TRUE(drc.clean);
    EXPECT_TRUE(routing.corridorDrc.clean) << [&] {
        std::string all;
        for (const auto &v : routing.corridorDrc.violations)
            all += v + "\n";
        return all;
    }();

    // Corridor containment: every inter-tile net starts at its entry
    // segment, walks only lattice-adjacent corridor segments, and exits
    // at the chip boundary. (checkCorridorDrc enforces this; re-assert
    // the boundary property directly.)
    ASSERT_EQ(routing.corridor.paths.size(),
              routing.corridorEntries.size());
    for (std::size_t n = 0; n < routing.corridor.paths.size(); ++n) {
        const CorridorPath &path = routing.corridor.paths[n];
        ASSERT_FALSE(path.segments.empty());
        EXPECT_EQ(path.segments.front(), routing.corridorEntries[n]);
        EXPECT_TRUE(routing.lattice.isBoundary(path.segments.back()));
    }
}

TEST(HierarchicalRouting, ArenaBudgetIsEnforced)
{
    const ChipTopology chip = makeGridWithQubitCount(100);
    const ChipCharacterization data = characterize(chip, 5);
    HierarchicalConfig hier;
    hier.tileSizeQubits = 25;
    const HierarchicalDesigner designer({}, hier);
    const HierarchicalDesign design =
        designer.designFromMeasurements(chip, data);

    HierarchicalRoutingConfig config;
    config.maxArenaBytes = 1024; // absurdly small: must refuse up front
    EXPECT_THROW(routeHierarchical(chip, design, config), ConfigError);
}

// --------------------------------------------- 64-bit corridor indexing

TEST(AstarGuard, RegressionAtTheOldOverflowBoundary)
{
    // The dense A* stays 32-bit indexed: the guard must still trip at
    // exactly the same boundary as before the hierarchical path landed.
    const std::size_t limit = astarMaxCells();
    EXPECT_NO_THROW(requireAstarIndexable(1, limit));
    EXPECT_THROW(requireAstarIndexable(1, limit + 1), ConfigError);
    EXPECT_THROW(requireAstarIndexable(70000, 70000), ConfigError);
}

TEST(CorridorLattice, SegmentIdsBeyondUint32Route)
{
    // A 100k-qubit-class lattice: 100000 x 100000 tiles has ~2e10
    // corridor segments -- far past the uint32 ceiling the cell-level
    // A* is stuck with. The sparse corridor router must address and
    // route through them.
    const std::uint64_t n = 100000;
    std::vector<double> cuts(n + 1);
    for (std::uint64_t i = 0; i <= n; ++i)
        cuts[i] = static_cast<double>(i);
    const CorridorLattice lattice = makeCorridorLattice(cuts, cuts);

    const std::uint64_t segments = lattice.segmentCount();
    ASSERT_GT(segments, std::uint64_t{0xFFFFFFFF});

    // An interior vertical segment near the far corner: its id only
    // fits in 64 bits.
    const std::uint64_t from =
        lattice.entrySegmentForTile(n - 2, n - 2, Point{0.0, 0.0});
    ASSERT_GT(from, std::uint64_t{0xFFFFFFFF});
    CorridorConfig config;
    const CorridorResult result =
        routeCorridors(lattice, {from}, config);
    ASSERT_EQ(result.failedNets, 0u);
    ASSERT_EQ(result.paths.size(), 1u);
    EXPECT_TRUE(lattice.isBoundary(result.paths[0].segments.back()));
    const CorridorDrcReport drc =
        checkCorridorDrc(lattice, result, {from}, config);
    EXPECT_TRUE(drc.clean);
}

// ------------------------------------------------------------ cross-check

TEST(HierarchicalDesign, MergedCoaxWithinAnalyticBand)
{
    const ChipTopology chip = makeGridWithQubitCount(576);
    HierarchicalConfig hier;
    hier.tileSizeQubits = 64;
    const HierarchicalDesigner designer({}, hier);
    const HierarchicalDesign design = designer.designSynthesized(chip);

    const HierarchicalCrossCheck check =
        crossCheckHierarchicalCounts(chip, design);
    EXPECT_GT(check.analyticCoax, 0u);
    EXPECT_TRUE(check.withinBand)
        << "actual " << check.actualCoax << " vs analytic "
        << check.analyticCoax << " (ratio " << check.ratio << ")";
}

} // namespace
} // namespace youtiao
