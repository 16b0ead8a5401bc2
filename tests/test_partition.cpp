#include <gtest/gtest.h>

#include <set>

#include "chip/topology_builder.hpp"
#include "common/error.hpp"
#include "noise/crosstalk_data.hpp"
#include "noise/equivalent_distance.hpp"
#include "oracles/checks.hpp"
#include "partition/generative_partition.hpp"

namespace youtiao {
namespace {

struct Setup
{
    ChipTopology chip = makeSquareGrid(6, 6);
    SymmetricMatrix d;

    Setup()
    {
        d = equivalentDistanceMatrix(qubitPhysicalDistanceMatrix(chip),
                                     qubitTopologicalDistanceMatrix(chip),
                                     0.6, 0.4);
    }
};

const Setup &
setup()
{
    static const Setup s;
    return s;
}

TEST(Partition, CoversAllQubitsOnce)
{
    Prng prng(1);
    PartitionConfig cfg;
    cfg.regionCount = 4;
    const ChipPartition part =
        generativePartition(setup().chip, setup().d, cfg, prng);
    ASSERT_EQ(part.regionCount(), 4u);
    std::vector<int> seen(36, 0);
    for (std::size_t r = 0; r < part.regionCount(); ++r) {
        for (std::size_t q : part.regions[r]) {
            ++seen[q];
            EXPECT_EQ(part.regionOfQubit[q], r);
        }
    }
    for (int s : seen)
        EXPECT_EQ(s, 1);
}

TEST(Partition, PassesDrc)
{
    Prng prng(2);
    PartitionConfig cfg;
    cfg.regionCount = 3;
    const ChipPartition part =
        generativePartition(setup().chip, setup().d, cfg, prng);
    EXPECT_TRUE(partitionPassesDrc(setup().chip, part));
}

TEST(Partition, AutoRegionCount)
{
    Prng prng(3);
    const ChipPartition part =
        generativePartition(setup().chip, setup().d, {}, prng);
    EXPECT_GE(part.regionCount(), 2u);
    EXPECT_LE(part.regionCount(), 6u);
}

TEST(Partition, SeedsBelongToTheirRegions)
{
    Prng prng(4);
    PartitionConfig cfg;
    cfg.regionCount = 3;
    const ChipPartition part =
        generativePartition(setup().chip, setup().d, cfg, prng);
    for (std::size_t r = 0; r < part.regionCount(); ++r)
        EXPECT_EQ(part.regionOfQubit[part.seeds[r]], r);
}

TEST(Partition, RegionsReasonablyBalanced)
{
    Prng prng(5);
    PartitionConfig cfg;
    cfg.regionCount = 4;
    const ChipPartition part =
        generativePartition(setup().chip, setup().d, cfg, prng);
    for (const auto &region : part.regions) {
        EXPECT_GE(region.size(), 4u);
        EXPECT_LE(region.size(), 16u);
    }
}

TEST(Partition, ComparableToGeometricSlabsOnRegularGrids)
{
    // Regular grids have no irregularity for the generative scheme to
    // exploit, so slabs are already near-optimal; the generative result
    // must stay in the same quality class (the irregular-layout advantage
    // is demonstrated in bench_ablations' dumbbell chip).
    Prng prng(6);
    PartitionConfig cfg;
    cfg.regionCount = 4;
    const ChipPartition ours =
        generativePartition(setup().chip, setup().d, cfg, prng);
    const ChipPartition slabs = geometricPartition(setup().chip, 4);
    EXPECT_LE(meanIntraRegionDistance(ours, setup().d),
              meanIntraRegionDistance(slabs, setup().d) * 1.5);
}

TEST(Partition, BeatsGeometricSlabsOnIrregularLayout)
{
    // Two vertically stacked 3x3 clusters bridged by a chain: x-slabs cut
    // across both clusters; the generative partition splits at the bridge.
    ChipTopology bell("dumbbell");
    auto add_cluster = [&bell](double x0, double y0) {
        std::vector<std::size_t> ids;
        for (int r = 0; r < 3; ++r)
            for (int c = 0; c < 3; ++c) {
                QubitInfo q;
                q.position = Point{x0 + 1.6 * c, y0 + 1.6 * r};
                ids.push_back(bell.addQubit(q));
            }
        for (int r = 0; r < 3; ++r)
            for (int c = 0; c < 3; ++c) {
                if (c < 2)
                    bell.addCoupler(ids[r * 3 + c], ids[r * 3 + c + 1]);
                if (r < 2)
                    bell.addCoupler(ids[r * 3 + c], ids[r * 3 + c + 3]);
            }
        return ids;
    };
    const auto bottom = add_cluster(0.0, 0.0);
    const auto top = add_cluster(0.0, 11.2);
    std::size_t prev = bottom[7];
    for (int i = 0; i < 4; ++i) {
        QubitInfo q;
        q.position = Point{1.6, 3.2 + 1.28 * (i + 1)};
        const std::size_t mid = bell.addQubit(q);
        bell.addCoupler(prev, mid);
        prev = mid;
    }
    bell.addCoupler(prev, top[1]);
    const SymmetricMatrix bd = equivalentDistanceMatrix(
        qubitPhysicalDistanceMatrix(bell),
        qubitTopologicalDistanceMatrix(bell), 0.6, 0.4);
    Prng prng(11);
    PartitionConfig cfg;
    cfg.regionCount = 2;
    const ChipPartition gen = generativePartition(bell, bd, cfg, prng);
    const ChipPartition slab = geometricPartition(bell, 2);
    EXPECT_LT(meanIntraRegionDistance(gen, bd),
              meanIntraRegionDistance(slab, bd));
}

TEST(Partition, GeometricPartitionValid)
{
    const ChipPartition part = geometricPartition(setup().chip, 3);
    std::vector<int> seen(36, 0);
    for (const auto &region : part.regions)
        for (std::size_t q : region)
            ++seen[q];
    for (int s : seen)
        EXPECT_EQ(s, 1);
}

TEST(Partition, MoreRegionsThanQubitsThrows)
{
    const ChipTopology tiny = makeSquareGrid(1, 2);
    const SymmetricMatrix d = qubitPhysicalDistanceMatrix(tiny);
    Prng prng(7);
    PartitionConfig cfg;
    cfg.regionCount = 5;
    EXPECT_THROW(generativePartition(tiny, d, cfg, prng), ConfigError);
}

TEST(Partition, SingleRegionDegenerate)
{
    Prng prng(8);
    PartitionConfig cfg;
    cfg.regionCount = 1;
    const ChipPartition part =
        generativePartition(setup().chip, setup().d, cfg, prng);
    EXPECT_EQ(part.regions[0].size(), 36u);
    EXPECT_TRUE(partitionPassesDrc(setup().chip, part));
}

TEST(Partition, FdmPartitionedCoversChip)
{
    Prng prng(9);
    PartitionConfig cfg;
    cfg.regionCount = 3;
    const ChipPartition part =
        generativePartition(setup().chip, setup().d, cfg, prng);
    FdmGroupingConfig fdm_cfg;
    fdm_cfg.lineCapacity = 5;
    const FdmPlan plan = groupFdmPartitioned(part, setup().d, fdm_cfg);
    std::vector<int> seen(36, 0);
    for (const auto &line : plan.lines) {
        EXPECT_LE(line.size(), 5u);
        for (std::size_t q : line)
            ++seen[q];
    }
    for (int s : seen)
        EXPECT_EQ(s, 1);
    // Lines never straddle regions.
    for (const auto &line : plan.lines) {
        std::set<std::size_t> regions;
        for (std::size_t q : line)
            regions.insert(part.regionOfQubit[q]);
        EXPECT_EQ(regions.size(), 1u);
    }
}

TEST(Partition, TdmPartitionedValid)
{
    Prng prng(10);
    PartitionConfig cfg;
    cfg.regionCount = 3;
    const ChipPartition part =
        generativePartition(setup().chip, setup().d, cfg, prng);
    Prng data_prng(11);
    const SymmetricMatrix zz =
        characterizeChip(setup().chip, data_prng).zzCrosstalkMHz;
    const TdmPlan plan = groupTdmPartitioned(setup().chip, part, zz);
    EXPECT_TRUE(allGatesRealizable(setup().chip, plan));
    std::vector<int> seen(setup().chip.deviceCount(), 0);
    for (const auto &group : plan.groups)
        for (std::size_t dev : group.devices)
            ++seen[dev];
    for (int s : seen)
        EXPECT_EQ(s, 1);
}

TEST(Partition, DrcDetectsFragmentedRegion)
{
    ChipPartition bad;
    bad.regions = {{0, 35}, {}}; // disconnected pair + empty region
    bad.regionOfQubit.assign(36, 0);
    EXPECT_FALSE(partitionPassesDrc(setup().chip, bad));
}

} // namespace
} // namespace youtiao
