#include <gtest/gtest.h>

#include "chip/topology_builder.hpp"
#include "common/error.hpp"
#include "core/youtiao.hpp"
#include "oracles/noisy_sampler.hpp"

namespace youtiao {
namespace {

FidelityContext
cleanContext(std::size_t qubits)
{
    FidelityContext ctx;
    ctx.xyCoupling = SymmetricMatrix(qubits, 0.0);
    ctx.zzMHz = SymmetricMatrix(qubits, 0.0);
    ctx.frequencyGHz.assign(qubits, 5.0);
    for (std::size_t q = 0; q < qubits; ++q)
        ctx.frequencyGHz[q] = 4.5 + 0.3 * static_cast<double>(q);
    ctx.fdmLineOfQubit.assign(qubits, FidelityContext::kDedicated);
    ctx.t1Ns.assign(qubits, 90e3);
    return ctx;
}

TEST(NoisySampler, NoiselessCircuitAlwaysSucceeds)
{
    QuantumCircuit qc(1);
    qc.rz(0, 1.0);
    Prng prng(1);
    const auto r = sampleNoisyExecution(qc, scheduleCircuit(qc),
                                        cleanContext(1), 200, prng);
    EXPECT_EQ(r.errorFreeShots, 200u);
    EXPECT_EQ(r.totalErrorEvents, 0u);
    EXPECT_DOUBLE_EQ(r.successRate(), 1.0);
}

TEST(NoisySampler, ConvergesToAnalyticFidelity)
{
    // A circuit with deliberately large error rates so the statistics
    // are visible at moderate shot counts.
    QuantumCircuit qc(3);
    for (int i = 0; i < 5; ++i) {
        qc.rx(0, 1.0);
        qc.rx(1, 1.0);
        qc.cz(0, 1);
        qc.cz(1, 2);
    }
    FidelityContext ctx = cleanContext(3);
    ctx.xyCoupling(0, 1) = 5e-2;
    ctx.zzMHz(0, 2) = 0.5;
    NoiseModelConfig cfg;
    cfg.oneQubitBaseError = 5e-3;
    cfg.twoQubitBaseError = 2e-2;
    ctx.noise = NoiseModel(cfg);

    const Schedule s = scheduleCircuit(qc);
    const double analytic = estimateFidelity(qc, s, ctx).fidelity;
    Prng prng(7);
    const auto r = sampleNoisyExecution(qc, s, ctx, 40000, prng);
    EXPECT_NEAR(r.successRate(), analytic, 0.01);
    EXPECT_GT(r.totalErrorEvents, 0u);
}

TEST(NoisySampler, ConvergesOnRealisticDesign)
{
    const ChipTopology chip = makeSquareGrid(3, 3);
    Prng data_prng(3);
    const ChipCharacterization data = characterizeChip(chip, data_prng);
    YoutiaoConfig config;
    config.fit.forest.treeCount = 10;
    const YoutiaoDesigner designer(config);
    const YoutiaoDesign design = designer.design(chip, data);
    FidelityContext ctx = designer.makeFidelityContext(chip, design);
    ctx.xyCoupling = data.xyCrosstalk;
    ctx.zzMHz = data.zzCrosstalkMHz;

    QuantumCircuit qc(9);
    for (int layer = 0; layer < 20; ++layer) {
        for (std::size_t q = 0; q < 9; ++q)
            qc.rx(q, 1.0);
        qc.barrier();
    }
    const Schedule s = scheduleCircuit(qc);
    const double analytic = estimateFidelity(qc, s, ctx).fidelity;
    Prng prng(9);
    const auto r = sampleNoisyExecution(qc, s, ctx, 20000, prng);
    EXPECT_NEAR(r.successRate(), analytic, 0.015);
}

TEST(NoisySampler, MoreNoiseFewerCleanShots)
{
    QuantumCircuit qc(2);
    for (int i = 0; i < 10; ++i)
        qc.cz(0, 1);
    FidelityContext quiet = cleanContext(2);
    FidelityContext loud = cleanContext(2);
    NoiseModelConfig loud_cfg;
    loud_cfg.twoQubitBaseError = 5e-2;
    loud.noise = NoiseModel(loud_cfg);
    Prng pa(5), pb(5);
    const Schedule s = scheduleCircuit(qc);
    const auto quiet_r = sampleNoisyExecution(qc, s, quiet, 5000, pa);
    const auto loud_r = sampleNoisyExecution(qc, s, loud, 5000, pb);
    EXPECT_GT(quiet_r.successRate(), loud_r.successRate());
}

TEST(NoisySampler, DeterministicGivenSeed)
{
    QuantumCircuit qc(2);
    qc.cz(0, 1);
    Prng pa(11), pb(11);
    const Schedule s = scheduleCircuit(qc);
    const auto a = sampleNoisyExecution(qc, s, cleanContext(2), 1000, pa);
    const auto b = sampleNoisyExecution(qc, s, cleanContext(2), 1000, pb);
    EXPECT_EQ(a.errorFreeShots, b.errorFreeShots);
    EXPECT_EQ(a.totalErrorEvents, b.totalErrorEvents);
}

TEST(NoisySampler, BatchStreamsArePinned)
{
    // 5000 shots over ten 512-shot batches, batch b drawing from
    // taskSeed(root, b) after one draw from the caller. The counts and
    // the caller's next draw were recorded when the batches ran on the
    // thread pool; the serial walk must reproduce them.
    QuantumCircuit qc(3);
    for (int i = 0; i < 5; ++i) {
        qc.rx(0, 1.0);
        qc.rx(1, 1.0);
        qc.cz(0, 1);
        qc.cz(1, 2);
    }
    FidelityContext ctx = cleanContext(3);
    ctx.xyCoupling(0, 1) = 5e-2;
    ctx.zzMHz(0, 2) = 0.5;
    NoiseModelConfig cfg;
    cfg.oneQubitBaseError = 5e-3;
    cfg.twoQubitBaseError = 2e-2;
    ctx.noise = NoiseModel(cfg);
    Prng prng(0xBEEF);
    const auto r =
        sampleNoisyExecution(qc, scheduleCircuit(qc), ctx, 5000, prng);
    EXPECT_EQ(r.errorFreeShots, 3845u);
    EXPECT_EQ(r.totalErrorEvents, 1316u);
    EXPECT_EQ(prng.next(), 1665595898297824307ull);
}

TEST(NoisySampler, ZeroShotsThrow)
{
    QuantumCircuit qc(1);
    Prng prng(1);
    EXPECT_THROW(sampleNoisyExecution(qc, scheduleCircuit(qc),
                                      cleanContext(1), 0, prng),
                 ConfigError);
}

} // namespace
} // namespace youtiao
