#include <gtest/gtest.h>

#include <algorithm>
#include <numbers>

#include "circuit/circuit.hpp"
#include "circuit/scheduler.hpp"
#include "common/error.hpp"
#include "oracles/checks.hpp"

namespace youtiao {
namespace {

TEST(Circuit, AppendAndCount)
{
    QuantumCircuit qc(3, "demo");
    qc.h(0);
    qc.cz(0, 1);
    qc.cnot(1, 2);
    qc.measure(2);
    EXPECT_EQ(qc.name(), "demo");
    EXPECT_EQ(qc.gateCount(), 4u);
    EXPECT_EQ(std::count_if(qc.gates().begin(), qc.gates().end(),
                            [](const Gate &g) { return isTwoQubit(g.kind); }),
              2);
}

TEST(Circuit, RejectsOutOfRangeOperands)
{
    QuantumCircuit qc(2);
    EXPECT_THROW(qc.h(2), ConfigError);
    EXPECT_THROW(qc.cz(0, 2), ConfigError);
    EXPECT_THROW(qc.cz(1, 1), ConfigError);
}

// Circuit depth is the depth of its ASAP schedule (RZ and barriers
// occupy no layer).

TEST(Circuit, DepthSerialOnOneQubit)
{
    QuantumCircuit qc(1);
    qc.h(0);
    qc.x(0);
    qc.rx(0, 0.5);
    EXPECT_EQ(scheduleCircuit(qc).depth(), 3u);
}

TEST(Circuit, DepthParallelAcrossQubits)
{
    QuantumCircuit qc(4);
    for (std::size_t q = 0; q < 4; ++q)
        qc.h(q);
    EXPECT_EQ(scheduleCircuit(qc).depth(), 1u);
}

TEST(Circuit, DepthTwoQubitDependencies)
{
    QuantumCircuit qc(3);
    qc.cz(0, 1);
    qc.cz(1, 2); // depends on qubit 1
    qc.cz(0, 2); // depends on both
    EXPECT_EQ(scheduleCircuit(qc).depth(), 3u);
}

TEST(Circuit, BarrierForcesNewLayer)
{
    QuantumCircuit qc(2);
    qc.h(0);
    qc.barrier();
    qc.h(1); // without the barrier this would share layer 0
    EXPECT_EQ(scheduleCircuit(qc).depth(), 2u);
}

TEST(Circuit, TwoQubitDepthCountsLayersWithCz)
{
    QuantumCircuit qc(4);
    qc.cz(0, 1);
    qc.cz(2, 3); // same layer
    qc.h(0);
    qc.cz(0, 1); // new layer
    EXPECT_EQ(scheduleCircuit(qc).twoQubitDepth(qc), 2u);
}

TEST(Circuit, TwoQubitDepthZeroForOneQubitCircuit)
{
    QuantumCircuit qc(2);
    qc.h(0);
    qc.h(1);
    EXPECT_EQ(scheduleCircuit(qc).twoQubitDepth(qc), 0u);
}

TEST(Circuit, EmptyCircuitDepths)
{
    QuantumCircuit qc(3);
    EXPECT_EQ(scheduleCircuit(qc).depth(), 0u);
    EXPECT_EQ(scheduleCircuit(qc).twoQubitDepth(qc), 0u);
}

TEST(Circuit, BasisDetection)
{
    QuantumCircuit basis(2);
    basis.rx(0, 1.0);
    basis.rz(1, 2.0);
    basis.cz(0, 1);
    basis.measure(0);
    EXPECT_TRUE(isBasisOnly(basis));

    QuantumCircuit logical(2);
    logical.cnot(0, 1);
    EXPECT_FALSE(isBasisOnly(logical));
}

TEST(Circuit, XGateRecordsPiAngle)
{
    QuantumCircuit qc(1);
    qc.x(0);
    EXPECT_DOUBLE_EQ(qc.gates()[0].angle, std::numbers::pi);
}

TEST(Circuit, GateKindNames)
{
    EXPECT_STREQ(gateKindName(GateKind::CZ), "cz");
    EXPECT_STREQ(gateKindName(GateKind::Measure), "measure");
}

TEST(Circuit, GateClassPredicates)
{
    EXPECT_TRUE(isTwoQubit(GateKind::CNOT));
    EXPECT_FALSE(isTwoQubit(GateKind::H));
    EXPECT_TRUE(usesXyLine(GateKind::RX));
    EXPECT_FALSE(usesXyLine(GateKind::RZ));
    EXPECT_FALSE(usesXyLine(GateKind::CZ));
    EXPECT_TRUE(isBasisGate(GateKind::RZ));
    EXPECT_FALSE(isBasisGate(GateKind::SWAP));
}

} // namespace
} // namespace youtiao

// -- inverse -------------------------------------------------------------

#include "circuit/benchmarks.hpp"
#include "oracles/statevector.hpp"

namespace youtiao {
namespace {

TEST(CircuitInverse, UndoesItself)
{
    QuantumCircuit qc(3);
    qc.h(0);
    qc.rx(1, 0.7);
    qc.cz(0, 1);
    qc.ry(2, -1.1);
    qc.cnot(1, 2);
    QuantumCircuit round_trip = qc;
    const QuantumCircuit inv = inverse(qc);
    for (const Gate &g : inv.gates())
        round_trip.append(g);
    const StateVector identity = simulate(QuantumCircuit(3));
    EXPECT_NEAR(simulate(round_trip).fidelityWith(identity), 1.0, 1e-10);
}

TEST(CircuitInverse, QftTimesInverseIsIdentity)
{
    QuantumCircuit qft = makeQft(4);
    // Strip the trailing measurements before inverting.
    QuantumCircuit unitary(4, "qft");
    for (const Gate &g : qft.gates()) {
        if (g.kind != GateKind::Measure)
            unitary.append(g);
    }
    QuantumCircuit round_trip(4);
    QuantumCircuit prep(4);
    prep.ry(0, 0.4);
    prep.ry(2, 1.3);
    for (const Gate &g : prep.gates())
        round_trip.append(g);
    for (const Gate &g : unitary.gates())
        round_trip.append(g);
    const QuantumCircuit inv = inverse(unitary);
    for (const Gate &g : inv.gates())
        round_trip.append(g);
    EXPECT_NEAR(simulate(round_trip).fidelityWith(simulate(prep)), 1.0,
                1e-9);
}

TEST(CircuitInverse, MeasuredCircuitThrows)
{
    QuantumCircuit qc(1);
    qc.measure(0);
    EXPECT_THROW(inverse(qc), ConfigError);
}

TEST(CircuitInverse, NameMarksInverse)
{
    QuantumCircuit qc(1, "probe");
    qc.h(0);
    EXPECT_EQ(inverse(qc).name(), "probe^-1");
}

} // namespace
} // namespace youtiao
