#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "chip/topology_builder.hpp"
#include "common/error.hpp"
#include "core/hierarchical.hpp"
#include "core/youtiao.hpp"
#include "multiplex/frequency_allocation.hpp"
#include "noise/crosstalk_model.hpp"
#include "noise/equivalent_distance.hpp"

namespace youtiao {
namespace {

struct Setup
{
    ChipTopology chip = makeSquareGrid(4, 4);
    SymmetricMatrix crosstalk;
    FdmPlan plan;
    NoiseModel noise;

    Setup()
    {
        Prng prng(9);
        const ChipCharacterization data = characterizeChip(chip, prng);
        crosstalk = data.xyCrosstalk;
        const SymmetricMatrix d = equivalentDistanceMatrix(
            qubitPhysicalDistanceMatrix(chip),
            qubitTopologicalDistanceMatrix(chip), 0.6, 0.4);
        FdmGroupingConfig cfg;
        cfg.lineCapacity = 4;
        plan = groupFdm(d, cfg);
    }
};

const Setup &
setup()
{
    static const Setup s;
    return s;
}

TEST(FrequencyAllocation, EveryQubitInBand)
{
    const FrequencyPlan fp = allocateFrequencies(setup().plan,
                                                 setup().crosstalk,
                                                 setup().noise);
    for (double f : fp.frequencyGHz) {
        EXPECT_GE(f, 4.0);
        EXPECT_LE(f, 7.0);
    }
}

TEST(FrequencyAllocation, InLineMembersInDistinctZones)
{
    const FrequencyPlan fp = allocateFrequencies(setup().plan,
                                                 setup().crosstalk,
                                                 setup().noise);
    for (const auto &line : setup().plan.lines) {
        std::set<std::size_t> zones;
        for (std::size_t q : line)
            zones.insert(fp.zoneOfQubit[q]);
        EXPECT_EQ(zones.size(), line.size())
            << "members of one FDM line must occupy distinct zones";
    }
}

TEST(FrequencyAllocation, InLineSpacingLarge)
{
    const FrequencyPlan fp = allocateFrequencies(setup().plan,
                                                 setup().crosstalk,
                                                 setup().noise);
    const double zone_width = 3.0 / static_cast<double>(fp.zoneCount);
    for (const auto &line : setup().plan.lines) {
        for (std::size_t i = 0; i < line.size(); ++i) {
            for (std::size_t j = i + 1; j < line.size(); ++j) {
                const double df = std::abs(fp.frequencyGHz[line[i]] -
                                           fp.frequencyGHz[line[j]]);
                EXPECT_GT(df, 0.25 * zone_width);
            }
        }
    }
}

TEST(FrequencyAllocation, ZoneCountEqualsMaxGroup)
{
    const FrequencyPlan fp = allocateFrequencies(setup().plan,
                                                 setup().crosstalk,
                                                 setup().noise);
    EXPECT_EQ(fp.zoneCount, setup().plan.maxGroupSize());
}

TEST(FrequencyAllocation, CostLowerThanInLineOnly)
{
    const FrequencyPlan ours = allocateFrequencies(setup().plan,
                                                   setup().crosstalk,
                                                   setup().noise);
    const FrequencyPlan george =
        allocateFrequenciesInLineOnly(setup().plan);
    const double cost_ours = allocationCrosstalkCost(
        ours.frequencyGHz, setup().crosstalk, setup().noise);
    const double cost_george = allocationCrosstalkCost(
        george.frequencyGHz, setup().crosstalk, setup().noise);
    EXPECT_LE(cost_ours, cost_george)
        << "two-level allocation must beat in-line-only allocation";
}

TEST(FrequencyAllocation, SwapPassMonotone)
{
    FrequencyAllocationConfig no_swaps;
    no_swaps.swapPasses = 0;
    FrequencyAllocationConfig with_swaps;
    with_swaps.swapPasses = 5;
    const double cost_before =
        allocateFrequencies(setup().plan, setup().crosstalk,
                            setup().noise, no_swaps)
            .crosstalkCost;
    const double cost_after =
        allocateFrequencies(setup().plan, setup().crosstalk,
                            setup().noise, with_swaps)
            .crosstalkCost;
    EXPECT_LE(cost_after, cost_before + 1e-12);
}

TEST(FrequencyAllocation, InLineOnlyReusesComb)
{
    const FrequencyPlan george =
        allocateFrequenciesInLineOnly(setup().plan);
    // Two full lines reuse identical frequency combs.
    const auto &l0 = setup().plan.lines[0];
    const auto &l1 = setup().plan.lines[1];
    ASSERT_EQ(l0.size(), l1.size());
    for (std::size_t k = 0; k < l0.size(); ++k)
        EXPECT_DOUBLE_EQ(george.frequencyGHz[l0[k]],
                         george.frequencyGHz[l1[k]]);
}

TEST(FrequencyAllocation, FabricationKeepsBaseFrequencies)
{
    std::vector<double> base(setup().chip.qubitCount());
    for (std::size_t q = 0; q < base.size(); ++q)
        base[q] = setup().chip.qubit(q).baseFrequencyGHz;
    const FrequencyPlan fab =
        allocateFrequenciesFabrication(setup().plan, base);
    EXPECT_EQ(fab.frequencyGHz, base);
}

TEST(FrequencyAllocation, CrowdedChipStillAllocates)
{
    // 64 qubits, capacity 4 -> 16 qubits per zone, cells suffice but
    // crowding logic must pick low-crosstalk cells without throwing.
    const ChipTopology big = makeSquareGrid(8, 8);
    Prng prng(11);
    const ChipCharacterization data = characterizeChip(big, prng);
    const SymmetricMatrix d = equivalentDistanceMatrix(
        qubitPhysicalDistanceMatrix(big),
        qubitTopologicalDistanceMatrix(big), 0.6, 0.4);
    FdmGroupingConfig cfg;
    cfg.lineCapacity = 4;
    const FdmPlan plan = groupFdm(d, cfg);
    const FrequencyPlan fp =
        allocateFrequencies(plan, data.xyCrosstalk, NoiseModel{});
    EXPECT_EQ(fp.frequencyGHz.size(), 64u);
    for (double f : fp.frequencyGHz)
        EXPECT_GT(f, 0.0);
}

TEST(FrequencyAllocation, MismatchedMatrixThrows)
{
    SymmetricMatrix wrong(3);
    EXPECT_THROW(allocateFrequencies(setup().plan, wrong, setup().noise),
                 ConfigError);
}

TEST(FrequencyAllocation, CostFunctionSymmetricInput)
{
    EXPECT_THROW(allocationCrosstalkCost({1.0, 2.0}, SymmetricMatrix(3),
                                         setup().noise),
                 ConfigError);
}

// -- the shared (zone, cell) lattice ---------------------------------------

/** Every qubit of @p plan sits bit for bit on its (zone, cell) centre of
 *  the lattice with @p zones_of_qubit(q) zones. */
template <class ZonesOf>
void
expectOnLattice(const FrequencyPlan &plan, ZonesOf zones_of_qubit)
{
    for (std::size_t q = 0; q < plan.frequencyGHz.size(); ++q) {
        const XyLattice lattice(zones_of_qubit(q));
        ASSERT_LT(plan.cellOfQubit[q], lattice.cellsPerZone) << q;
        EXPECT_EQ(plan.frequencyGHz[q],
                  lattice.centreGHz(plan.zoneOfQubit[q],
                                    plan.cellOfQubit[q]))
            << "qubit " << q;
    }
}

TEST(FrequencyLattice, AllocatorAndSeamStitchShareOneLattice)
{
    const ChipTopology flat_chip = makeSquareGrid(8, 8);
    Prng flat_prng(3);
    const YoutiaoDesign flat = YoutiaoDesigner().designFromMeasurements(
        flat_chip, characterizeChip(flat_chip, flat_prng));
    expectOnLattice(flat.frequencyPlan, [&](std::size_t) {
        return flat.frequencyPlan.zoneCount;
    });

    // Tiles carve their own zone counts; the stitch retunes near-seam
    // qubits within their tile's zone.
    const ChipTopology chip = makeSquareGrid(16, 16);
    Prng prng(11);
    HierarchicalConfig hier;
    hier.tileSizeQubits = 64;
    const HierarchicalDesign design =
        HierarchicalDesigner({}, hier).designFromMeasurements(
            chip, characterizeChip(chip, prng));
    ASSERT_EQ(design.tiles.size(), 4u);
    ASSERT_GT(design.seamRetunes, 0u);
    expectOnLattice(design.merged.frequencyPlan, [&](std::size_t q) {
        return design.tiles[design.tileOfQubit[q]]
            .design.frequencyPlan.zoneCount;
    });
}

// -- incremental cost tracking (sparse neighbourhood delta updates) --------

TEST(IncrementalCost, MatchesFullRecomputeOverRandomizedPlans)
{
    // Property: after any sequence of placements and retunes, the running
    // total equals the O(n^2) allocationCrosstalkCost recompute to 1e-9.
    Prng prng(41);
    for (std::size_t trial = 0; trial < 20; ++trial) {
        const std::size_t n = 8 + prng.uniformInt(24);
        SymmetricMatrix crosstalk(n);
        std::vector<std::size_t> line_of_qubit(n);
        for (std::size_t q = 0; q < n; ++q)
            line_of_qubit[q] = prng.uniformInt(1 + n / 4);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = i + 1; j < n; ++j)
                crosstalk(i, j) = 5e-3 * prng.uniform();
        const NoiseModel noise;
        const CrosstalkNeighborhood nbr(crosstalk, line_of_qubit);
        IncrementalAllocationCost running(nbr, noise);

        std::vector<double> freq(n, 0.0);
        for (std::size_t q = 0; q < n; ++q) {
            freq[q] = 4.0 + 3.0 * prng.uniform();
            running.place(q, freq[q]);
        }
        EXPECT_NEAR(running.total(),
                    allocationCrosstalkCost(freq, crosstalk, noise), 1e-9);

        for (std::size_t m = 0; m < 3 * n; ++m) {
            const std::size_t q = prng.uniformInt(n);
            freq[q] = 4.0 + 3.0 * prng.uniform();
            running.move(q, freq[q]);
        }
        EXPECT_NEAR(running.total(),
                    allocationCrosstalkCost(freq, crosstalk, noise), 1e-9);
    }
}

TEST(IncrementalCost, PlaceTwiceOrMoveUnplacedThrows)
{
    SymmetricMatrix crosstalk(2);
    crosstalk(0, 1) = 1e-3;
    const std::vector<std::size_t> lines{0, 1};
    const CrosstalkNeighborhood nbr(crosstalk, lines);
    IncrementalAllocationCost cost(nbr, NoiseModel{});
    EXPECT_THROW(cost.move(0, 5.0), InternalError);
    cost.place(0, 5.0);
    EXPECT_THROW(cost.place(0, 5.5), InternalError);
}

TEST(CrosstalkNeighborhood, EpsilonZeroKeepsEveryNonzeroPairAndMates)
{
    const CrosstalkNeighborhood nbr(setup().crosstalk,
                                    setup().plan.lineOfQubit);
    const std::size_t n = setup().plan.lineOfQubit.size();
    for (std::size_t q = 0; q < n; ++q) {
        std::size_t expected = 0;
        for (std::size_t o = 0; o < n; ++o) {
            if (o == q)
                continue;
            if (setup().crosstalk(q, o) > 0.0 ||
                setup().plan.lineOfQubit[o] ==
                    setup().plan.lineOfQubit[q])
                ++expected;
        }
        EXPECT_EQ(nbr.degree(q), expected);
    }
}

} // namespace
} // namespace youtiao
