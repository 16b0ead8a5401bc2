#include <gtest/gtest.h>

#include <algorithm>

#include "chip/surface_code_layout.hpp"
#include "common/error.hpp"
#include "oracles/checks.hpp"

namespace youtiao {
namespace {

class SurfaceCodeDistances : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(SurfaceCodeDistances, QubitAndCouplerCounts)
{
    const std::size_t d = GetParam();
    const SurfaceCodeLayout layout = makeSurfaceCodeLayout(d);
    EXPECT_EQ(layout.chip.qubitCount(), 2 * d * d - 1);
    EXPECT_EQ(layout.dataQubitCount(), d * d);
    EXPECT_EQ(layout.measureQubitCount(), d * d - 1);
    EXPECT_EQ(layout.chip.couplerCount(), 4 * d * (d - 1));
}

TEST_P(SurfaceCodeDistances, RolesPartitionQubits)
{
    const std::size_t d = GetParam();
    const SurfaceCodeLayout layout = makeSurfaceCodeLayout(d);
    ASSERT_EQ(layout.roles.size(), layout.chip.qubitCount());
    std::size_t data = 0, meas_x = 0, meas_z = 0;
    for (const SurfaceCodeRole role : layout.roles) {
        switch (role) {
          case SurfaceCodeRole::Data: ++data; break;
          case SurfaceCodeRole::MeasureX: ++meas_x; break;
          case SurfaceCodeRole::MeasureZ: ++meas_z; break;
        }
    }
    EXPECT_EQ(data, d * d);
    EXPECT_EQ(meas_x + meas_z, d * d - 1);
    // Rotated code balances X and Z checks exactly.
    EXPECT_EQ(meas_x, (d * d - 1) / 2);
    EXPECT_EQ(meas_z, (d * d - 1) / 2);
}

TEST_P(SurfaceCodeDistances, MeasureQubitsCoupleOnlyToData)
{
    const std::size_t d = GetParam();
    const SurfaceCodeLayout layout = makeSurfaceCodeLayout(d);
    for (const CouplerInfo &c : layout.chip.couplers()) {
        const bool a_data =
            layout.roles[c.qubitA] == SurfaceCodeRole::Data;
        const bool b_data =
            layout.roles[c.qubitB] == SurfaceCodeRole::Data;
        EXPECT_NE(a_data, b_data)
            << "couplers join one data and one measure qubit";
    }
}

TEST_P(SurfaceCodeDistances, MeasureQubitWeights)
{
    const std::size_t d = GetParam();
    const SurfaceCodeLayout layout = makeSurfaceCodeLayout(d);
    std::size_t weight2 = 0, weight4 = 0;
    for (std::size_t q = 0; q < layout.chip.qubitCount(); ++q) {
        if (layout.roles[q] == SurfaceCodeRole::Data)
            continue;
        const std::size_t w = layout.chip.qubitGraph().degree(q);
        if (w == 2)
            ++weight2;
        else if (w == 4)
            ++weight4;
        else
            FAIL() << "stabilizer weight " << w;
    }
    EXPECT_EQ(weight2, 2 * (d - 1));
    EXPECT_EQ(weight4, (d - 1) * (d - 1));
}

TEST_P(SurfaceCodeDistances, ChipConnected)
{
    const SurfaceCodeLayout layout = makeSurfaceCodeLayout(GetParam());
    EXPECT_TRUE(isConnected(layout.chip.qubitGraph()));
}

INSTANTIATE_TEST_SUITE_P(PaperDistances, SurfaceCodeDistances,
                         ::testing::Values(3, 5, 7, 9, 11));

TEST(SurfaceCode, RejectsEvenOrSmallDistance)
{
    EXPECT_THROW(makeSurfaceCodeLayout(2), ConfigError);
    EXPECT_THROW(makeSurfaceCodeLayout(4), ConfigError);
    EXPECT_THROW(makeSurfaceCodeLayout(1), ConfigError);
}

TEST(SurfaceCode, IdealCycleHasFourCzLayers)
{
    EXPECT_EQ(idealCzLayersPerCycle(), 4u);
}

TEST(SurfaceCode, DataQubitsComeFirst)
{
    const SurfaceCodeLayout layout = makeSurfaceCodeLayout(3);
    for (std::size_t q = 0; q < layout.dataQubitCount(); ++q)
        EXPECT_EQ(layout.roles[q], SurfaceCodeRole::Data);
}

} // namespace
} // namespace youtiao

// -- EC cycle circuit (circuit/surface_code_circuit) ---------------------

#include "circuit/scheduler.hpp"
#include "circuit/surface_code_circuit.hpp"

namespace youtiao {
namespace {

TEST(SurfaceCodeCircuit, DanceStepsAreConflictFree)
{
    // Within each barrier-delimited CZ step, every qubit appears at most
    // once (the X/Z sweep orders avoid data-qubit contention).
    const SurfaceCodeLayout layout = makeSurfaceCodeLayout(5);
    const QuantumCircuit qc = makeSurfaceCodeCycles(layout, 1);
    std::vector<int> used(layout.chip.qubitCount(), 0);
    for (const Gate &g : qc.gates()) {
        if (g.kind == GateKind::Barrier) {
            std::fill(used.begin(), used.end(), 0);
            continue;
        }
        if (g.kind != GateKind::CZ)
            continue;
        EXPECT_EQ(used[g.qubit0]++, 0);
        EXPECT_EQ(used[g.qubit1]++, 0);
    }
}

TEST(SurfaceCodeCircuit, IdealScheduleHasFourCzLayersPerCycle)
{
    for (std::size_t d : {3u, 5u}) {
        const SurfaceCodeLayout layout = makeSurfaceCodeLayout(d);
        const QuantumCircuit qc = makeSurfaceCodeCycles(layout, 3);
        const Schedule s = scheduleCircuit(qc);
        EXPECT_EQ(s.twoQubitDepth(qc), 3 * idealCzLayersPerCycle())
            << "d=" << d;
    }
}

TEST(SurfaceCodeCircuit, EveryCouplingExercisedOncePerCycle)
{
    const SurfaceCodeLayout layout = makeSurfaceCodeLayout(3);
    const QuantumCircuit qc = makeSurfaceCodeCycles(layout, 1);
    const auto two_qubit =
        std::count_if(qc.gates().begin(), qc.gates().end(),
                      [](const Gate &g) { return isTwoQubit(g.kind); });
    EXPECT_EQ(static_cast<std::size_t>(two_qubit),
              layout.chip.couplerCount());
}

TEST(SurfaceCodeCircuit, CyclesScaleLinearly)
{
    const SurfaceCodeLayout layout = makeSurfaceCodeLayout(3);
    const QuantumCircuit one = makeSurfaceCodeCycles(layout, 1);
    const QuantumCircuit many = makeSurfaceCodeCycles(layout, 25);
    EXPECT_EQ(many.gateCount(), 25 * one.gateCount());
}

TEST(SurfaceCodeCircuit, ZeroCyclesThrow)
{
    const SurfaceCodeLayout layout = makeSurfaceCodeLayout(3);
    EXPECT_THROW(makeSurfaceCodeCycles(layout, 0), ConfigError);
}

} // namespace
} // namespace youtiao
