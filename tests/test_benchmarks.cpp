#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "circuit/benchmarks.hpp"
#include "circuit/transpiler.hpp"
#include "common/error.hpp"
#include "oracles/checks.hpp"
#include "oracles/statevector.hpp"

namespace youtiao {
namespace {

TEST(Benchmarks, NamesAndEnumeration)
{
    EXPECT_EQ(allBenchmarks().size(), 5u);
    EXPECT_STREQ(benchmarkName(BenchmarkKind::QFT), "QFT");
    EXPECT_STREQ(benchmarkName(BenchmarkKind::QKNN), "QKNN");
}

TEST(Benchmarks, VqcShape)
{
    Prng prng(1);
    const QuantumCircuit qc = makeVqc(6, 3, prng);
    EXPECT_EQ(qc.qubitCount(), 6u);
    EXPECT_EQ(qc.name(), "VQC");
    // 3 layers x 5 bonds (brickwork on 6 qubits: 3 even + 2 odd).
    EXPECT_EQ(std::count_if(qc.gates().begin(), qc.gates().end(),
                            [](const Gate &g) { return isTwoQubit(g.kind); }),
              15);
}

TEST(Benchmarks, IsingUnitarySemantics)
{
    // One trotter step on 2 qubits must preserve norm and act nontrivially.
    const QuantumCircuit qc = makeIsing(2, 1);
    const StateVector sv = simulate(qc);
    EXPECT_NEAR(sv.norm(), 1.0, 1e-12);
}

TEST(Benchmarks, DeutschJozsaBalancedDetection)
{
    // For a balanced oracle the input register never returns all zeros.
    const QuantumCircuit qc = makeDeutschJozsa(4, 0b101);
    const StateVector sv = simulate(qc);
    // Probability that inputs (qubits 0..2) are all zero must be ~0.
    double p_zero_inputs = 0.0;
    for (std::size_t basis = 0; basis < 16; ++basis) {
        if ((basis & 0b0111) == 0)
            p_zero_inputs += sv.probability(basis);
    }
    EXPECT_NEAR(p_zero_inputs, 0.0, 1e-10);
}

TEST(Benchmarks, DeutschJozsaMaskValidation)
{
    EXPECT_THROW(makeDeutschJozsa(4, 0), ConfigError);
    EXPECT_THROW(makeDeutschJozsa(3, 0b100), ConfigError);
}

TEST(Benchmarks, QftOnBasisStateGivesUniformAmplitudes)
{
    QuantumCircuit prep(3, "prep");
    prep.x(0);
    QuantumCircuit qft = makeQft(3);
    StateVector sv(3);
    sv.run(prep);
    sv.run(qft);
    for (std::size_t b = 0; b < 8; ++b)
        EXPECT_NEAR(sv.probability(b), 1.0 / 8.0, 1e-10);
}

TEST(Benchmarks, QftZeroStateStaysUniform)
{
    const StateVector sv = simulate(makeQft(4));
    for (std::size_t b = 0; b < 16; ++b)
        EXPECT_NEAR(sv.probability(b), 1.0 / 16.0, 1e-10);
}

TEST(Benchmarks, QknnSwapTestIdenticalStates)
{
    // Identical register encodings: ancilla measures |0> w.p. 1.
    // Force identical states by using register size 1 with equal angles:
    // makeQknn draws random angles, so instead build the swap test
    // manually through the exposed Fredkin helper.
    QuantumCircuit qc(3, "swap-test");
    qc.ry(1, 0.8);
    qc.ry(2, 0.8);
    qc.h(0);
    appendFredkin(qc, 0, 1, 2);
    qc.h(0);
    const StateVector sv = simulate(qc);
    EXPECT_NEAR(sv.probabilityOfOne(0), 0.0, 1e-10);
}

TEST(Benchmarks, QknnSwapTestOrthogonalStates)
{
    // |0> vs |1>: P(ancilla = 1) = 1/2.
    QuantumCircuit qc(3, "swap-test");
    qc.x(2);
    qc.h(0);
    appendFredkin(qc, 0, 1, 2);
    qc.h(0);
    const StateVector sv = simulate(qc);
    EXPECT_NEAR(sv.probabilityOfOne(0), 0.5, 1e-10);
}

TEST(Benchmarks, QknnGeneratorShape)
{
    Prng prng(2);
    const QuantumCircuit qc = makeQknn(3, prng);
    EXPECT_EQ(qc.qubitCount(), 7u);
    EXPECT_EQ(qc.name(), "QKNN");
}

TEST(Benchmarks, ToffoliTruthTable)
{
    for (unsigned in = 0; in < 8; ++in) {
        QuantumCircuit qc(3);
        for (unsigned b = 0; b < 3; ++b)
            if (in & (1u << b))
                qc.x(b);
        appendToffoli(qc, 0, 1, 2);
        const StateVector sv = simulate(qc);
        const unsigned expected =
            (in & 0b011) == 0b011 ? in ^ 0b100 : in;
        EXPECT_NEAR(sv.probability(expected), 1.0, 1e-10)
            << "input " << in;
    }
}

TEST(Benchmarks, FredkinTruthTable)
{
    for (unsigned in = 0; in < 8; ++in) {
        QuantumCircuit qc(3);
        for (unsigned b = 0; b < 3; ++b)
            if (in & (1u << b))
                qc.x(b);
        appendFredkin(qc, 0, 1, 2);
        const StateVector sv = simulate(qc);
        unsigned expected = in;
        if (in & 1u) { // control set: swap bits 1 and 2
            const unsigned b1 = (in >> 1) & 1u, b2 = (in >> 2) & 1u;
            expected = (in & 1u) | (b2 << 1) | (b1 << 2);
        }
        EXPECT_NEAR(sv.probability(expected), 1.0, 1e-10)
            << "input " << in;
    }
}

TEST(Benchmarks, ControlledPhaseMatchesDefinition)
{
    // CP(theta) acting on |11> adds phase theta; on others nothing.
    QuantumCircuit qc(2);
    qc.x(0);
    qc.x(1);
    qc.h(0); // put control in superposition-of-basis to observe phase?
    // Simpler: verify CP(pi) == CZ by comparing states.
    QuantumCircuit a(2), b(2);
    a.h(0);
    a.h(1);
    appendControlledPhase(a, 0, 1, std::numbers::pi);
    b.h(0);
    b.h(1);
    b.cz(0, 1);
    EXPECT_NEAR(simulate(a).fidelityWith(simulate(b)), 1.0, 1e-10);
}

TEST(Benchmarks, RzzMatchesDirectConstruction)
{
    QuantumCircuit a(2);
    a.h(0);
    a.h(1);
    appendRzz(a, 0, 1, 0.77);
    const StateVector sv = simulate(a);
    EXPECT_NEAR(sv.norm(), 1.0, 1e-12);
}

TEST(Benchmarks, MakeBenchmarkSizes)
{
    Prng prng(3);
    for (BenchmarkKind kind : allBenchmarks()) {
        const QuantumCircuit qc = makeBenchmark(kind, 9, prng);
        EXPECT_LE(qc.qubitCount(), 9u) << benchmarkName(kind);
        EXPECT_GT(qc.gateCount(), 0u);
    }
}

TEST(Benchmarks, AllBenchmarksLowerToBasis)
{
    Prng prng(4);
    for (BenchmarkKind kind : allBenchmarks()) {
        const QuantumCircuit qc = makeBenchmark(kind, 8, prng);
        const QuantumCircuit lowered = lowerToBasis(qc);
        EXPECT_TRUE(isBasisOnly(lowered)) << benchmarkName(kind);
    }
}

} // namespace
} // namespace youtiao
