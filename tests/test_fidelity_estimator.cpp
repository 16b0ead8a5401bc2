#include <gtest/gtest.h>

#include "chip/topology_builder.hpp"
#include "common/error.hpp"
#include "sim/fidelity_estimator.hpp"

namespace youtiao {
namespace {

FidelityContext
cleanContext(std::size_t qubits)
{
    FidelityContext ctx;
    ctx.xyCoupling = SymmetricMatrix(qubits, 0.0);
    ctx.zzMHz = SymmetricMatrix(qubits, 0.0);
    ctx.frequencyGHz.assign(qubits, 0.0);
    for (std::size_t q = 0; q < qubits; ++q)
        ctx.frequencyGHz[q] = 4.5 + 0.3 * static_cast<double>(q);
    ctx.fdmLineOfQubit.assign(qubits, FidelityContext::kDedicated);
    ctx.t1Ns.assign(qubits, 90e3);
    return ctx;
}

TEST(FidelityEstimator, EmptyCircuitPerfect)
{
    QuantumCircuit qc(2);
    const auto f = estimateFidelity(qc, cleanContext(2));
    EXPECT_DOUBLE_EQ(f.fidelity, 1.0);
}

TEST(FidelityEstimator, SingleGateBaseError)
{
    QuantumCircuit qc(2);
    qc.rx(0, 1.0);
    const auto f = estimateFidelity(qc, cleanContext(2));
    const NoiseModelConfig cfg;
    EXPECT_NEAR(f.baseComponent, 1.0 - cfg.oneQubitBaseError, 1e-12);
    EXPECT_LT(f.fidelity, 1.0);
    EXPECT_GT(f.fidelity, 0.999);
}

TEST(FidelityEstimator, TwoQubitGateCostsMore)
{
    QuantumCircuit one(2), two(2);
    one.rx(0, 1.0);
    two.cz(0, 1);
    const auto f1 = estimateFidelity(one, cleanContext(2));
    const auto f2 = estimateFidelity(two, cleanContext(2));
    EXPECT_LT(f2.baseComponent, f1.baseComponent);
}

TEST(FidelityEstimator, VirtualRzFree)
{
    QuantumCircuit qc(1);
    qc.rz(0, 1.0);
    const auto f = estimateFidelity(qc, cleanContext(1));
    EXPECT_DOUBLE_EQ(f.fidelity, 1.0);
}

TEST(FidelityEstimator, CrosstalkPenalizesCloseFrequencies)
{
    QuantumCircuit qc(2);
    qc.rx(0, 1.0);
    qc.rx(1, 1.0); // simultaneous drives

    FidelityContext near = cleanContext(2);
    near.xyCoupling(0, 1) = 1e-2;
    near.frequencyGHz = {5.0, 5.02}; // 20 MHz apart

    FidelityContext far = cleanContext(2);
    far.xyCoupling(0, 1) = 1e-2;
    far.frequencyGHz = {5.0, 6.5};

    const double f_near =
        estimateFidelity(qc, near).crosstalkComponent;
    const double f_far = estimateFidelity(qc, far).crosstalkComponent;
    EXPECT_LT(f_near, f_far);
}

TEST(FidelityEstimator, SharedLineLeakageCounted)
{
    QuantumCircuit qc(2);
    qc.rx(0, 1.0);

    FidelityContext dedicated = cleanContext(2);
    FidelityContext shared = cleanContext(2);
    shared.fdmLineOfQubit = {0, 0};
    shared.frequencyGHz = dedicated.frequencyGHz;

    const double f_ded =
        estimateFidelity(qc, dedicated).crosstalkComponent;
    const double f_shr = estimateFidelity(qc, shared).crosstalkComponent;
    EXPECT_LT(f_shr, f_ded);
}

TEST(FidelityEstimator, ZzBetweenParallelCzGates)
{
    QuantumCircuit qc(4);
    qc.cz(0, 1);
    qc.cz(2, 3);

    FidelityContext quiet = cleanContext(4);
    FidelityContext noisy = cleanContext(4);
    noisy.zzMHz(1, 2) = 1.0;

    EXPECT_LT(estimateFidelity(qc, noisy).crosstalkComponent,
              estimateFidelity(qc, quiet).crosstalkComponent + 1e-15);
    EXPECT_LT(estimateFidelity(qc, noisy).crosstalkComponent, 1.0);
}

TEST(FidelityEstimator, ZzDephasingLastsTheContextsGateTime)
{
    // The ZZ term and the decoherence clock read one two-qubit gate
    // time: the context's, not a second copy in the noise model.
    QuantumCircuit qc(4);
    qc.cz(0, 1);
    qc.cz(2, 3);
    FidelityContext ctx = cleanContext(4);
    ctx.zzMHz(1, 2) = 1.0;
    ctx.durations.twoQubitNs = 120.0;
    EXPECT_DOUBLE_EQ(estimateFidelity(qc, ctx).crosstalkComponent,
                     1.0 - ctx.noise.zzDephasingError(1.0, 120.0));
}

TEST(FidelityEstimator, SerializedGatesAvoidZzPenalty)
{
    FidelityContext noisy = cleanContext(4);
    noisy.zzMHz(1, 2) = 1.0;

    QuantumCircuit parallel(4);
    parallel.cz(0, 1);
    parallel.cz(2, 3);

    // Barrier forces the second CZ into its own layer.
    QuantumCircuit serial(4);
    serial.cz(0, 1);
    serial.barrier();
    serial.cz(2, 3);

    const double f_par =
        estimateFidelity(parallel, noisy).crosstalkComponent;
    const double f_ser =
        estimateFidelity(serial, noisy).crosstalkComponent;
    EXPECT_GT(f_ser, f_par)
        << "serialization dodges simultaneous-gate ZZ error";
}

TEST(FidelityEstimator, DecoherenceChargesIdleTimeOnly)
{
    // Qubit 1 waits while qubit 0 runs a long sequence: only that idle
    // exposure is charged (decay during gates lives in the base errors).
    QuantumCircuit qc(2);
    qc.rx(1, 1.0);
    for (int i = 0; i < 50; ++i)
        qc.rx(0, 1.0);
    const auto ctx = cleanContext(2);
    const auto f = estimateFidelity(qc, ctx);
    const NoiseModel nm;
    // Qubit 0 is never idle; qubit 1 idles for 49 layers of 25 ns.
    EXPECT_NEAR(f.decoherenceComponent,
                1.0 - nm.idleError(49 * 25.0, ctx.t1Ns[1]), 1e-9);
}

TEST(FidelityEstimator, FullyBusyCircuitDoesNotDecohere)
{
    QuantumCircuit qc(1);
    for (int i = 0; i < 50; ++i)
        qc.rx(0, 1.0);
    const auto f = estimateFidelity(qc, cleanContext(1));
    EXPECT_DOUBLE_EQ(f.decoherenceComponent, 1.0);
}

TEST(FidelityEstimator, SerializationIncreasesExposure)
{
    // Two CZs forced into separate layers leave each gate's qubits
    // idling through the other's window (TDM's decoherence cost).
    QuantumCircuit parallel(4), serial(4);
    parallel.cz(0, 1);
    parallel.cz(2, 3);
    serial.cz(0, 1);
    serial.barrier();
    serial.cz(2, 3);
    const auto ctx = cleanContext(4);
    EXPECT_GT(estimateFidelity(parallel, ctx).decoherenceComponent,
              estimateFidelity(serial, ctx).decoherenceComponent);
}

TEST(FidelityEstimator, ContextTooSmallThrows)
{
    QuantumCircuit qc(3);
    qc.rx(2, 1.0);
    EXPECT_THROW(estimateFidelity(qc, cleanContext(2)), ConfigError);
}

TEST(FidelityEstimator, BreakdownMultipliesToTotal)
{
    QuantumCircuit qc(2);
    qc.h(0);
    qc.cz(0, 1);
    qc.measure(0);
    FidelityContext ctx = cleanContext(2);
    ctx.xyCoupling(0, 1) = 1e-3;
    const auto f = estimateFidelity(qc, ctx);
    EXPECT_NEAR(f.fidelity, f.baseComponent * f.crosstalkComponent *
                                f.decoherenceComponent, 1e-12);
}

} // namespace
} // namespace youtiao
