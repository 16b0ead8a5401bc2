#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "oracles/statevector.hpp"

namespace youtiao {
namespace {

constexpr double pi = std::numbers::pi;

TEST(StateVector, InitializesToZeroState)
{
    StateVector sv(3);
    EXPECT_DOUBLE_EQ(sv.probability(0), 1.0);
    EXPECT_DOUBLE_EQ(sv.norm(), 1.0);
}

TEST(StateVector, XFlipsQubit)
{
    QuantumCircuit qc(2);
    qc.x(1);
    const StateVector sv = simulate(qc);
    EXPECT_NEAR(sv.probability(0b10), 1.0, 1e-12);
    EXPECT_NEAR(sv.probabilityOfOne(1), 1.0, 1e-12);
    EXPECT_NEAR(sv.probabilityOfOne(0), 0.0, 1e-12);
}

TEST(StateVector, HadamardCreatesSuperposition)
{
    QuantumCircuit qc(1);
    qc.h(0);
    const StateVector sv = simulate(qc);
    EXPECT_NEAR(sv.probability(0), 0.5, 1e-12);
    EXPECT_NEAR(sv.probability(1), 0.5, 1e-12);
}

TEST(StateVector, HadamardSelfInverse)
{
    QuantumCircuit qc(1);
    qc.h(0);
    qc.h(0);
    const StateVector sv = simulate(qc);
    EXPECT_NEAR(sv.probability(0), 1.0, 1e-12);
}

TEST(StateVector, RxPiIsX)
{
    QuantumCircuit qc(1);
    qc.rx(0, pi);
    const StateVector sv = simulate(qc);
    EXPECT_NEAR(sv.probabilityOfOne(0), 1.0, 1e-12);
}

TEST(StateVector, RyRotationProbability)
{
    QuantumCircuit qc(1);
    qc.ry(0, pi / 3.0);
    const StateVector sv = simulate(qc);
    EXPECT_NEAR(sv.probabilityOfOne(0), std::sin(pi / 6.0) *
                                            std::sin(pi / 6.0), 1e-12);
}

TEST(StateVector, RzPreservesProbabilities)
{
    QuantumCircuit qc(1);
    qc.h(0);
    qc.rz(0, 1.234);
    const StateVector sv = simulate(qc);
    EXPECT_NEAR(sv.probabilityOfOne(0), 0.5, 1e-12);
}

TEST(StateVector, CnotEntangles)
{
    QuantumCircuit qc(2);
    qc.h(0);
    qc.cnot(0, 1);
    const StateVector sv = simulate(qc);
    EXPECT_NEAR(sv.probability(0b00), 0.5, 1e-12);
    EXPECT_NEAR(sv.probability(0b11), 0.5, 1e-12);
    EXPECT_NEAR(sv.probability(0b01), 0.0, 1e-12);
}

TEST(StateVector, CzPhaseOnlyOnBothOnes)
{
    // |11> picks up a minus sign; verify via interference.
    QuantumCircuit a(2);
    a.h(0);
    a.h(1);
    a.cz(0, 1);
    a.h(1);
    const StateVector sv = simulate(a);
    // CZ sandwiched in H on target = CNOT: |+0> -> Bell-ish
    EXPECT_NEAR(sv.probability(0b00), 0.5, 1e-12);
    EXPECT_NEAR(sv.probability(0b11), 0.5, 1e-12);
}

TEST(StateVector, SwapExchangesStates)
{
    QuantumCircuit qc(2);
    qc.x(0);
    qc.swap(0, 1);
    const StateVector sv = simulate(qc);
    EXPECT_NEAR(sv.probability(0b10), 1.0, 1e-12);
}

TEST(StateVector, NormPreservedByRandomCircuit)
{
    QuantumCircuit qc(4);
    qc.h(0);
    qc.cnot(0, 1);
    qc.ry(2, 0.7);
    qc.cz(1, 2);
    qc.swap(2, 3);
    qc.rx(3, 1.9);
    const StateVector sv = simulate(qc);
    EXPECT_NEAR(sv.norm(), 1.0, 1e-12);
}

TEST(StateVector, FidelityWithSelfIsOne)
{
    QuantumCircuit qc(2);
    qc.h(0);
    qc.cnot(0, 1);
    const StateVector a = simulate(qc);
    const StateVector b = simulate(qc);
    EXPECT_NEAR(a.fidelityWith(b), 1.0, 1e-12);
}

TEST(StateVector, FidelityOrthogonalIsZero)
{
    QuantumCircuit id(1), flip(1);
    flip.x(0);
    EXPECT_NEAR(simulate(id).fidelityWith(simulate(flip)), 0.0, 1e-12);
}

TEST(StateVector, GlobalPhaseInvisibleInFidelity)
{
    QuantumCircuit a(1), b(1);
    a.h(0);
    b.rz(0, pi); // global phase difference on |0>? no: acts after H
    b.h(0);
    // Just verify fidelity is in [0, 1].
    const double f = simulate(a).fidelityWith(simulate(b));
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
}

TEST(StateVector, TooManyQubitsThrows)
{
    EXPECT_THROW(StateVector(25), ConfigError);
    EXPECT_THROW(StateVector(0), ConfigError);
}

TEST(StateVector, CircuitWiderThanRegisterThrows)
{
    StateVector sv(2);
    QuantumCircuit qc(3);
    EXPECT_THROW(sv.run(qc), ConfigError);
}

} // namespace
} // namespace youtiao

// -- additional algebraic identities ---------------------------------------

namespace youtiao {
namespace {

TEST(StateVectorAlgebra, CzSymmetricInOperands)
{
    QuantumCircuit a(2), b(2);
    a.h(0);
    a.h(1);
    a.cz(0, 1);
    b.h(0);
    b.h(1);
    b.cz(1, 0);
    EXPECT_NEAR(simulate(a).fidelityWith(simulate(b)), 1.0, 1e-12);
}

TEST(StateVectorAlgebra, RotationAnglesCompose)
{
    QuantumCircuit split(1), whole(1);
    split.rx(0, 0.4);
    split.rx(0, 0.9);
    whole.rx(0, 1.3);
    EXPECT_NEAR(simulate(split).fidelityWith(simulate(whole)), 1.0,
                1e-12);
}

TEST(StateVectorAlgebra, TwoPiRotationIsIdentityUpToPhase)
{
    QuantumCircuit qc(1);
    qc.ry(0, 2.0 * std::numbers::pi);
    EXPECT_NEAR(simulate(qc).fidelityWith(simulate(QuantumCircuit(1))),
                1.0, 1e-12);
}

TEST(StateVectorAlgebra, SwapConjugationMovesGates)
{
    // SWAP(0,1) RX_0 SWAP(0,1) == RX_1.
    QuantumCircuit conj(2), direct(2);
    conj.swap(0, 1);
    conj.rx(0, 0.8);
    conj.swap(0, 1);
    direct.rx(1, 0.8);
    EXPECT_NEAR(simulate(conj).fidelityWith(simulate(direct)), 1.0,
                1e-12);
}

TEST(StateVectorAlgebra, GhzStateFromChain)
{
    QuantumCircuit qc(3);
    qc.h(0);
    qc.cnot(0, 1);
    qc.cnot(1, 2);
    const StateVector sv = simulate(qc);
    EXPECT_NEAR(sv.probability(0b000), 0.5, 1e-12);
    EXPECT_NEAR(sv.probability(0b111), 0.5, 1e-12);
    EXPECT_NEAR(sv.probability(0b101), 0.0, 1e-12);
}

} // namespace
} // namespace youtiao
