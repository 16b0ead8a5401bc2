#include <gtest/gtest.h>

#include "chip/topology_builder.hpp"
#include "circuit/benchmarks.hpp"
#include "circuit/transpiler.hpp"
#include "common/error.hpp"
#include "multiplex/tdm_scheduler.hpp"
#include "noise/crosstalk_data.hpp"
#include "oracles/retired.hpp"

namespace youtiao {
namespace {

SymmetricMatrix
zzFor(const ChipTopology &chip)
{
    Prng prng(33);
    return characterizeChip(chip, prng).zzCrosstalkMHz;
}

TEST(TdmScheduler, RequiredDevicesForCz)
{
    const ChipTopology chip = makeSquareGrid(1, 2);
    const TdmPlan plan = dedicatedZPlan(chip);
    const TdmLayerConstraint constraint(chip, plan);
    const auto devices =
        constraint.requiredDevices(Gate{GateKind::CZ, 0, 1, 0.0});
    EXPECT_EQ(devices.size(), 3u);
    EXPECT_EQ(devices[2], chip.couplerDeviceId(0));
}

TEST(TdmScheduler, XyGatesNeedNoDevices)
{
    const ChipTopology chip = makeSquareGrid(1, 2);
    const TdmPlan plan = dedicatedZPlan(chip);
    const TdmLayerConstraint constraint(chip, plan);
    EXPECT_TRUE(
        constraint.requiredDevices(Gate{GateKind::RX, 0, 0, 1.0}).empty());
    EXPECT_TRUE(
        constraint.requiredDevices(Gate{GateKind::Measure, 0, 0, 0.0})
            .empty());
}

TEST(TdmScheduler, CzOnUncoupledQubitsThrows)
{
    const ChipTopology chip = makeSquareGrid(1, 3);
    const TdmPlan plan = dedicatedZPlan(chip);
    const TdmLayerConstraint constraint(chip, plan);
    EXPECT_THROW(constraint.requiredDevices(Gate{GateKind::CZ, 0, 2, 0.0}),
                 ConfigError);
}

TEST(TdmScheduler, DedicatedWiringAddsNoDepth)
{
    const ChipTopology chip = makeSquareGrid(2, 2);
    QuantumCircuit qc(4);
    qc.cz(0, 1);
    qc.cz(2, 3);
    const Schedule unconstrained = scheduleCircuit(qc);
    const Schedule dedicated =
        scheduleWithTdm(qc, chip, dedicatedZPlan(chip));
    EXPECT_EQ(dedicated.depth(), unconstrained.depth());
}

TEST(TdmScheduler, SharedDemuxSerializesGates)
{
    // Force both couplers of a 2x2 ring into one group: the two disjoint
    // CZs must serialize (paper Figure 4, Case 3).
    const ChipTopology chip = makeSquareGrid(2, 2);
    TdmPlan plan = dedicatedZPlan(chip);
    // Merge the groups of coupler (0,1) and coupler (2,3).
    const std::size_t c01 = chip.couplerBetween(0, 1);
    const std::size_t c23 = chip.couplerBetween(2, 3);
    ASSERT_NE(c01, ChipTopology::npos);
    ASSERT_NE(c23, ChipTopology::npos);
    const std::size_t d01 = chip.couplerDeviceId(c01);
    const std::size_t d23 = chip.couplerDeviceId(c23);
    plan.groupOfDevice[d23] = plan.groupOfDevice[d01];

    QuantumCircuit qc(4);
    qc.cz(0, 1);
    qc.cz(2, 3);
    const Schedule s = scheduleWithTdm(qc, chip, plan);
    EXPECT_EQ(s.depth(), 2u) << "same-DEMUX gates cannot share a window";
}

TEST(TdmScheduler, XyLayersUnaffected)
{
    const ChipTopology chip = makeSquareGrid(2, 2);
    const SymmetricMatrix zz = zzFor(chip);
    const TdmPlan plan = groupTdm(chip, zz);
    QuantumCircuit qc(4);
    for (std::size_t q = 0; q < 4; ++q)
        qc.rx(q, 1.0);
    const Schedule s = scheduleWithTdm(qc, chip, plan);
    EXPECT_EQ(s.depth(), 1u) << "XY gates ride FDM lines, not DEMUXes";
}

TEST(TdmScheduler, YoutiaoDepthBetweenGoogleAndLocalCluster)
{
    // The headline ordering of Figure 14: Google <= YOUTIAO <= Acharya.
    const ChipTopology chip = makeSquareGrid(4, 4);
    const SymmetricMatrix zz = zzFor(chip);
    Prng prng(3);
    const QuantumCircuit logical = makeVqc(16, 3, prng);
    const QuantumCircuit physical = transpile(logical, chip).physical;

    const std::size_t google =
        scheduleWithTdm(physical, chip, dedicatedZPlan(chip))
            .twoQubitDepth(physical);
    const std::size_t ours =
        scheduleWithTdm(physical, chip, groupTdm(chip, zz))
            .twoQubitDepth(physical);
    const std::size_t acharya =
        scheduleWithTdm(physical, chip, groupTdmLocalCluster(chip, 4))
            .twoQubitDepth(physical);
    EXPECT_LE(google, ours);
    EXPECT_LE(ours, acharya);
}

TEST(TdmScheduler, PlanMustCoverChip)
{
    const ChipTopology chip = makeSquareGrid(2, 2);
    TdmPlan tiny;
    tiny.groupOfDevice.assign(2, 0);
    EXPECT_THROW(TdmLayerConstraint(chip, tiny), ConfigError);
}

} // namespace
} // namespace youtiao

// -- DEMUX switch-time accounting -----------------------------------------

namespace youtiao {
namespace {

TEST(TdmDuration, SwitchOverheadAddsToSerializedSchedules)
{
    const ChipTopology chip = makeSquareGrid(1, 3);
    // Both couplers behind one DEMUX: the two CZs serialize and the DEMUX
    // retargets once between the layers.
    TdmPlan plan = dedicatedZPlan(chip);
    const std::size_t c0 = chip.couplerDeviceId(0);
    const std::size_t c1 = chip.couplerDeviceId(1);
    plan.groupOfDevice[c1] = plan.groupOfDevice[c0];

    QuantumCircuit qc(3);
    qc.cz(0, 1);
    qc.cz(1, 2);
    const Schedule s = scheduleWithTdm(qc, chip, plan);
    const GateDurations d;
    const double plain = s.durationNs(qc, d);
    const double with_switch = tdmDurationNs(qc, s, chip, plan, d, 2.6);
    EXPECT_NEAR(with_switch, plain + 2.6, 1e-9);
}

TEST(TdmDuration, DedicatedWiringNeverSwitches)
{
    const ChipTopology chip = makeSquareGrid(2, 2);
    const TdmPlan plan = dedicatedZPlan(chip);
    QuantumCircuit qc(4);
    qc.cz(0, 1);
    qc.cz(0, 2);
    qc.cz(1, 3);
    const Schedule s = scheduleWithTdm(qc, chip, plan);
    const GateDurations d;
    EXPECT_DOUBLE_EQ(tdmDurationNs(qc, s, chip, plan, d, 2.6),
                     s.durationNs(qc, d));
}

} // namespace
} // namespace youtiao

// -- noisy-gate and composite constraints ----------------------------------

namespace youtiao {
namespace {

TEST(NoisyGateConstraint, SerializesHighZzPairs)
{
    const ChipTopology chip = makeSquareGrid(2, 2);
    SymmetricMatrix zz(4, 0.0);
    zz(1, 2) = 1.0; // gates (0,1) and (2,3) are noisy neighbours
    QuantumCircuit qc(4);
    qc.cz(0, 1);
    qc.cz(2, 3);
    const Schedule s = scheduleWithTdmAndNoise(qc, chip,
                                               dedicatedZPlan(chip), zz,
                                               0.5);
    EXPECT_EQ(s.depth(), 2u) << "noisy pair must serialize";
    const Schedule quiet = scheduleWithTdmAndNoise(
        qc, chip, dedicatedZPlan(chip), SymmetricMatrix(4, 0.0), 0.5);
    EXPECT_EQ(quiet.depth(), 1u);
}

TEST(NoisyGateConstraint, OneQubitGatesUnaffected)
{
    const ChipTopology chip = makeSquareGrid(2, 2);
    SymmetricMatrix zz(4, 5.0); // everything screams
    QuantumCircuit qc(4);
    for (std::size_t q = 0; q < 4; ++q)
        qc.rx(q, 1.0);
    const Schedule s = scheduleWithTdmAndNoise(qc, chip,
                                               dedicatedZPlan(chip), zz,
                                               0.1);
    EXPECT_EQ(s.depth(), 1u);
}

TEST(NoisyGateConstraint, BadInputsThrow)
{
    const ChipTopology chip = makeSquareGrid(2, 2);
    EXPECT_THROW(NoisyGateConstraint(chip, SymmetricMatrix(2), 0.1),
                 ConfigError);
    EXPECT_THROW(NoisyGateConstraint(chip, SymmetricMatrix(4), -1.0),
                 ConfigError);
}

TEST(CompositeConstraint, AllPartsMustAgree)
{
    const ChipTopology chip = makeSquareGrid(1, 4);
    // TDM groups couplers together; noise forbids the distant pair too.
    TdmPlan plan = dedicatedZPlan(chip);
    SymmetricMatrix zz(4, 0.0);
    zz(1, 2) = 1.0;
    const TdmLayerConstraint tdm(chip, plan);
    const NoisyGateConstraint noisy(chip, zz, 0.5);
    const CompositeConstraint both({&tdm, &noisy});
    const Gate first{GateKind::CZ, 0, 1, 0.0};
    const Gate second{GateKind::CZ, 2, 3, 0.0};
    EXPECT_TRUE(tdm.canCoexist(second, {first}));
    EXPECT_FALSE(noisy.canCoexist(second, {first}));
    EXPECT_FALSE(both.canCoexist(second, {first}));
}

TEST(CompositeConstraint, RejectsNull)
{
    EXPECT_THROW(CompositeConstraint({nullptr}), ConfigError);
}

} // namespace
} // namespace youtiao
