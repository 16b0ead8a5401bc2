#include <gtest/gtest.h>

#include <numbers>

#include "chip/topology_builder.hpp"
#include "circuit/benchmarks.hpp"
#include "circuit/transpiler.hpp"
#include "common/error.hpp"
#include "oracles/checks.hpp"
#include "oracles/statevector.hpp"

namespace youtiao {
namespace {

/** Fidelity between lowered and original circuit states (same width). */
double
loweringFidelity(const QuantumCircuit &logical)
{
    const QuantumCircuit lowered = lowerToBasis(logical);
    return simulate(logical).fidelityWith(simulate(lowered));
}

TEST(Transpiler, LowerHadamardPreservesSemantics)
{
    QuantumCircuit qc(1);
    qc.h(0);
    EXPECT_NEAR(loweringFidelity(qc), 1.0, 1e-10);
}

TEST(Transpiler, LowerCnotPreservesSemantics)
{
    QuantumCircuit qc(2);
    qc.h(0);
    qc.cnot(0, 1);
    EXPECT_NEAR(loweringFidelity(qc), 1.0, 1e-10);
}

TEST(Transpiler, LowerSwapPreservesSemantics)
{
    QuantumCircuit qc(2);
    qc.ry(0, 1.1);
    qc.swap(0, 1);
    EXPECT_NEAR(loweringFidelity(qc), 1.0, 1e-10);
}

TEST(Transpiler, LowerProducesBasisOnly)
{
    Prng prng(1);
    const QuantumCircuit qc = makeQft(5);
    const QuantumCircuit lowered = lowerToBasis(qc);
    EXPECT_TRUE(isBasisOnly(lowered));
}

TEST(Transpiler, AdjacentGatesNeedNoSwaps)
{
    const ChipTopology chip = makeSquareGrid(1, 3);
    QuantumCircuit qc(3);
    qc.cz(0, 1);
    qc.cz(1, 2);
    const TranspileResult result = transpile(qc, chip);
    EXPECT_EQ(result.insertedSwaps, 0u);
}

TEST(Transpiler, DistantGateInsertsSwaps)
{
    const ChipTopology chip = makeSquareGrid(1, 4); // line of 4
    QuantumCircuit qc(4);
    qc.cz(0, 3);
    const TranspileResult result = transpile(qc, chip);
    EXPECT_GE(result.insertedSwaps, 2u);
    // Every CZ in the output must be on coupled qubits.
    for (const Gate &g : result.physical.gates()) {
        if (g.kind == GateKind::CZ) {
            EXPECT_TRUE(chip.qubitGraph().hasEdge(g.qubit0, g.qubit1));
        }
    }
}

TEST(Transpiler, RoutedCircuitSemanticsPreserved)
{
    // Compare statevector of the routed circuit (with layout undone)
    // against the logical circuit on a line topology.
    const ChipTopology chip = makeSquareGrid(1, 4);
    QuantumCircuit qc(4, "probe");
    qc.h(0);
    qc.cnot(0, 3);
    qc.ry(2, 0.4);
    const TranspileResult result = transpile(qc, chip);

    const StateVector routed = simulate(result.physical);
    const StateVector logical = simulate(qc);
    // Check per-qubit marginals through the final layout.
    for (std::size_t l = 0; l < qc.qubitCount(); ++l) {
        EXPECT_NEAR(routed.probabilityOfOne(result.finalLayout[l]),
                    logical.probabilityOfOne(l), 1e-10)
            << "logical qubit " << l;
    }
}

TEST(Transpiler, GridRoutingAllCzAdjacent)
{
    const ChipTopology chip = makeSquareGrid(3, 3);
    Prng prng(5);
    const QuantumCircuit qft = makeQft(9);
    const TranspileResult result = transpile(qft, chip);
    EXPECT_TRUE(isBasisOnly(result.physical));
    for (const Gate &g : result.physical.gates()) {
        if (g.kind == GateKind::CZ) {
            EXPECT_TRUE(chip.qubitGraph().hasEdge(g.qubit0, g.qubit1));
        }
    }
}

TEST(Transpiler, WiderThanChipThrows)
{
    const ChipTopology chip = makeSquareGrid(2, 2);
    QuantumCircuit qc(5);
    EXPECT_THROW(transpile(qc, chip), ConfigError);
}

TEST(Transpiler, FinalLayoutIsPermutation)
{
    const ChipTopology chip = makeSquareGrid(3, 3);
    Prng prng(6);
    const QuantumCircuit qc = makeVqc(9, 2, prng);
    const TranspileResult result = transpile(qc, chip);
    std::vector<bool> seen(chip.qubitCount(), false);
    for (std::size_t p : result.finalLayout) {
        EXPECT_LT(p, chip.qubitCount());
        EXPECT_FALSE(seen[p]);
        seen[p] = true;
    }
}

TEST(Transpiler, DisconnectedChipRaisesTypedError)
{
    // Two isolated pairs: no swap chain can connect them.
    ChipTopology chip("split");
    chip.addQubit({{0.0, 0.0}});
    chip.addQubit({{1.0, 0.0}});
    chip.addQubit({{10.0, 0.0}});
    chip.addQubit({{11.0, 0.0}});
    chip.addCoupler(0, 1);
    chip.addCoupler(2, 3);

    QuantumCircuit qc(4);
    qc.cnot(0, 1); // routable, so the failing gate has index 1
    qc.cnot(0, 2); // crosses the gap
    try {
        transpile(qc, chip);
        FAIL() << "expected TranspileError";
    } catch (const TranspileError &e) {
        EXPECT_EQ(e.gateKind(), GateKind::CNOT);
        EXPECT_EQ(e.gateIndex(), 1u);
        EXPECT_EQ(e.logicalQubit0(), 0u);
        EXPECT_EQ(e.logicalQubit1(), 2u);
        EXPECT_NE(e.physicalQubit0(), e.physicalQubit1());
        const std::string what = e.what();
        EXPECT_NE(what.find("gate #1"), std::string::npos);
        EXPECT_NE(what.find("disconnected"), std::string::npos);
    }
    // Still catchable as the base ConfigError for callers that do not
    // care about operands.
    EXPECT_THROW(transpile(qc, chip), ConfigError);
}

TEST(Transpiler, MeasureMappedToPhysical)
{
    const ChipTopology chip = makeSquareGrid(1, 2);
    QuantumCircuit qc(2);
    qc.measure(1);
    const TranspileResult result = transpile(qc, chip);
    ASSERT_EQ(result.physical.gateCount(), 1u);
    EXPECT_EQ(result.physical.gates()[0].kind, GateKind::Measure);
    EXPECT_EQ(result.physical.gates()[0].qubit0, result.finalLayout[1]);
}

} // namespace
} // namespace youtiao
