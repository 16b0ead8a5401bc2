#include <gtest/gtest.h>

#include "chip/topology_builder.hpp"
#include "circuit/benchmarks.hpp"
#include "circuit/transpiler.hpp"
#include "common/error.hpp"
#include "multiplex/activity_grouping.hpp"
#include "noise/crosstalk_data.hpp"
#include "multiplex/tdm_scheduler.hpp"

namespace youtiao {
namespace {

TEST(DeviceActivity, TracksCzDevices)
{
    const ChipTopology chip = makeSquareGrid(2, 2);
    QuantumCircuit qc(4);
    qc.cz(0, 1);
    DeviceActivity activity(chip);
    activity.observe(qc, scheduleCircuit(qc));
    EXPECT_EQ(activity.observedLayers(), 1u);
    EXPECT_EQ(activity.activeLayers(0), 1u);
    EXPECT_EQ(activity.activeLayers(1), 1u);
    const std::size_t c = chip.couplerBetween(0, 1);
    EXPECT_EQ(activity.activeLayers(chip.couplerDeviceId(c)), 1u);
    EXPECT_EQ(activity.activeLayers(2), 0u);
}

TEST(DeviceActivity, XyGatesLeaveZPlaneIdle)
{
    const ChipTopology chip = makeSquareGrid(2, 2);
    QuantumCircuit qc(4);
    qc.rx(0, 1.0);
    qc.h(1);
    DeviceActivity activity(chip);
    activity.observe(qc, scheduleCircuit(qc));
    for (std::size_t d = 0; d < chip.deviceCount(); ++d)
        EXPECT_EQ(activity.activeLayers(d), 0u);
}

TEST(DeviceActivity, OverlapSemantics)
{
    const ChipTopology chip = makeSquareGrid(1, 4);
    QuantumCircuit qc(4);
    qc.cz(0, 1); // layer 0
    qc.cz(2, 3); // layer 0: co-active with the first gate
    qc.cz(1, 2); // layer 1
    DeviceActivity activity(chip);
    activity.observe(qc, scheduleCircuit(qc));
    EXPECT_EQ(activity.observedLayers(), 2u);
    // q0 and q3 are both active only in layer 0.
    EXPECT_DOUBLE_EQ(activity.overlap(0, 3), 1.0);
    // q0 (layer 0) and the (1,2) coupler (layer 1) never contend.
    const std::size_t c12 =
        chip.couplerDeviceId(chip.couplerBetween(1, 2));
    EXPECT_DOUBLE_EQ(activity.overlap(0, c12), 0.0);
    // An idle device overlaps nothing.
    EXPECT_DOUBLE_EQ(activity.overlap(0, 0), 1.0); // self-overlap is 1
}

TEST(DeviceActivity, AccumulatesAcrossCircuits)
{
    const ChipTopology chip = makeSquareGrid(1, 2);
    QuantumCircuit qc(2);
    qc.cz(0, 1);
    DeviceActivity activity(chip);
    activity.observe(qc, scheduleCircuit(qc));
    activity.observe(qc, scheduleCircuit(qc));
    EXPECT_EQ(activity.observedLayers(), 2u);
    EXPECT_EQ(activity.activeLayers(0), 2u);
}

TEST(DeviceActivity, RejectsUncoupledCz)
{
    const ChipTopology chip = makeSquareGrid(1, 3);
    QuantumCircuit qc(3);
    qc.cz(0, 2);
    DeviceActivity activity(chip);
    EXPECT_THROW(activity.observe(qc, scheduleCircuit(qc)), ConfigError);
}

TEST(ActivityGrouping, ZeroOverlapGroupsAddNoDepth)
{
    // Serial chain of CZs: all devices pairwise non-co-active except the
    // triples themselves, so activity grouping compresses lines at zero
    // depth cost.
    const ChipTopology chip = makeSquareGrid(1, 5);
    QuantumCircuit qc(5);
    qc.cz(0, 1);
    qc.cz(1, 2);
    qc.cz(2, 3);
    qc.cz(3, 4);
    const Schedule base = scheduleCircuit(qc);
    DeviceActivity activity(chip);
    activity.observe(qc, base);

    const TdmPlan plan = groupTdmByActivity(chip, activity);
    EXPECT_TRUE(allGatesRealizable(chip, plan));
    EXPECT_LT(plan.lineCount(), chip.deviceCount());
    const Schedule constrained = scheduleWithTdm(qc, chip, plan);
    EXPECT_EQ(constrained.twoQubitDepth(qc), base.twoQubitDepth(qc));
}

TEST(ActivityGrouping, PlanCoversAllDevicesOnce)
{
    const ChipTopology chip = makeSquareGrid(3, 3);
    Prng prng(5);
    const QuantumCircuit logical = makeVqc(9, 3, prng);
    const QuantumCircuit physical = transpile(logical, chip).physical;
    DeviceActivity activity(chip);
    activity.observe(physical, scheduleCircuit(physical));
    const TdmPlan plan = groupTdmByActivity(chip, activity);
    std::vector<int> seen(chip.deviceCount(), 0);
    for (const TdmGroup &g : plan.groups) {
        EXPECT_LE(g.devices.size(), 4u);
        for (std::size_t d : g.devices)
            ++seen[d];
    }
    for (int s : seen)
        EXPECT_EQ(s, 1);
}

TEST(ActivityGrouping, OverlapBudgetTradesLinesForDepth)
{
    const ChipTopology chip = makeSquareGrid(4, 4);
    Prng prng(6);
    const QuantumCircuit logical = makeVqc(16, 4, prng);
    const QuantumCircuit physical = transpile(logical, chip).physical;
    DeviceActivity activity(chip);
    activity.observe(physical, scheduleCircuit(physical));

    const TdmPlan strict = groupTdmByActivity(chip, activity, 0.0);
    const TdmPlan loose = groupTdmByActivity(chip, activity, 0.5);
    EXPECT_LE(loose.lineCount(), strict.lineCount());

    const std::size_t strict_depth =
        scheduleWithTdm(physical, chip, strict).twoQubitDepth(physical);
    const std::size_t loose_depth =
        scheduleWithTdm(physical, chip, loose).twoQubitDepth(physical);
    EXPECT_LE(strict_depth, loose_depth);
}

TEST(ActivityGrouping, BeatsTopologyGroupingOnItsWorkload)
{
    // On the workload it observed, activity grouping should serialize no
    // more than the topology-only grouping does.
    const ChipTopology chip = makeSquareGrid(4, 4);
    Prng prng(7);
    const QuantumCircuit logical = makeIsing(16, 3);
    const QuantumCircuit physical = transpile(logical, chip).physical;
    DeviceActivity activity(chip);
    activity.observe(physical, scheduleCircuit(physical));

    Prng data_prng(8);
    const SymmetricMatrix zz =
        characterizeChip(chip, data_prng).zzCrosstalkMHz;
    const TdmPlan topological = groupTdm(chip, zz);
    const TdmPlan dynamic = groupTdmByActivity(chip, activity);

    const std::size_t topo_depth =
        scheduleWithTdm(physical, chip, topological)
            .twoQubitDepth(physical);
    const std::size_t dyn_depth =
        scheduleWithTdm(physical, chip, dynamic).twoQubitDepth(physical);
    EXPECT_LE(dyn_depth, topo_depth);
    (void)logical;
}

TEST(ActivityGrouping, BadBudgetThrows)
{
    const ChipTopology chip = makeSquareGrid(1, 2);
    const DeviceActivity activity(chip);
    EXPECT_THROW(groupTdmByActivity(chip, activity, 1.5), ConfigError);
}

} // namespace
} // namespace youtiao
