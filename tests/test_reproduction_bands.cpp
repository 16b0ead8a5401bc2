/**
 * Regression guards for the paper reproduction: the headline numbers of
 * every table/figure must stay inside the bands EXPERIMENTS.md records.
 * If an algorithm change drifts a reproduction, these tests fail before
 * the bench output quietly changes.
 */

#include <gtest/gtest.h>

#include "chip/surface_code_layout.hpp"
#include "chip/topology_builder.hpp"
#include "circuit/surface_code_circuit.hpp"
#include "core/baselines.hpp"
#include "core/fault_tolerant.hpp"
#include "core/scalability.hpp"
#include "core/youtiao.hpp"
#include "multiplex/tdm_scheduler.hpp"

namespace youtiao {
namespace {

TEST(ReproductionBands, Table1CostReductionAtDistance11)
{
    const SurfaceCodeLayout layout = makeSurfaceCodeLayout(11);
    const SurfaceCodeWiring ours = designSurfaceCodeWiring(layout);
    const double google = wiringCostUsd(dedicatedWiringCounts(
        layout.chip.qubitCount(), layout.chip.couplerCount()));
    const double reduction = google / ours.costUsd;
    EXPECT_GT(reduction, 1.9) << "paper: 2.35x";
    EXPECT_LT(reduction, 2.6);
}

TEST(ReproductionBands, Table1DepthOverhead)
{
    const SurfaceCodeLayout layout = makeSurfaceCodeLayout(5);
    const SurfaceCodeWiring ours = designSurfaceCodeWiring(layout);
    const QuantumCircuit ec = makeSurfaceCodeCycles(layout, 25);
    const double ratio =
        static_cast<double>(
            scheduleWithTdm(ec, layout.chip, ours.zPlan)
                .twoQubitDepth(ec)) /
        static_cast<double>(
            scheduleWithTdm(ec, layout.chip, dedicatedZPlan(layout.chip))
                .twoQubitDepth(ec));
    EXPECT_LE(ratio, 1.3) << "paper: <= 1.18x";
    EXPECT_GE(ratio, 1.0);
}

class Table2Band
    : public ::testing::TestWithParam<std::pair<TopologyFamily, double>>
{};

TEST_P(Table2Band, CostReductionInBand)
{
    const auto [family, paper_reduction] = GetParam();
    const ChipTopology chip = makeTopology(family);
    Prng prng(0x7AB1E2 + chip.qubitCount());
    const ChipCharacterization data = characterizeChip(chip, prng);
    const YoutiaoConfig config;
    const YoutiaoDesign ours =
        YoutiaoDesigner(config).designFromMeasurements(chip, data);
    const double google = wiringCostUsd(dedicatedWiringCounts(
        chip.qubitCount(), chip.couplerCount(), config.cost));
    const double reduction = google / ours.costUsd;
    EXPECT_GT(reduction, paper_reduction - 0.7)
        << topologyFamilyName(family);
    EXPECT_LT(reduction, paper_reduction + 0.7)
        << topologyFamilyName(family);
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, Table2Band,
    ::testing::Values(
        std::pair<TopologyFamily, double>{TopologyFamily::Square, 2.8},
        std::pair<TopologyFamily, double>{TopologyFamily::Hexagon, 3.3},
        std::pair<TopologyFamily, double>{TopologyFamily::HeavySquare,
                                          3.2},
        std::pair<TopologyFamily, double>{TopologyFamily::HeavyHexagon,
                                          3.2},
        std::pair<TopologyFamily, double>{TopologyFamily::LowDensity,
                                          3.3}));

TEST(ReproductionBands, Fig17a150Qubits)
{
    const ScalePoint p = estimateSquareSystem(150);
    // Paper: 613 -> 267 coax, a 2.3x reduction.
    EXPECT_NEAR(static_cast<double>(p.googleCoax), 613.0, 40.0);
    EXPECT_NEAR(static_cast<double>(p.youtiaoCoax), 267.0, 40.0);
}

TEST(ReproductionBands, Fig17cChipletReduction)
{
    const ChipletComparison cmp = compareIbmChiplet(25);
    EXPECT_GT(cmp.cableReduction(), 3.0) << "paper: ~3.5x";
    EXPECT_LT(cmp.cableReduction(), 4.5);
}

TEST(ReproductionBands, Fig13aSingleQubitFidelityAnchor)
{
    // Paper anchor: ~99.98% per-gate fidelity on shared FDM lines.
    const ChipTopology chip = makeSquareGrid(6, 6);
    Prng prng(0xF13);
    const ChipCharacterization data = characterizeChip(chip, prng);
    YoutiaoConfig config;
    config.fdm.lineCapacity = 4;
    config.fit.forest.treeCount = 25;
    const YoutiaoDesigner designer(config);
    const YoutiaoDesign design = designer.design(chip, data);
    FidelityContext ctx = designer.makeFidelityContext(chip, design);
    ctx.xyCoupling = data.xyCrosstalk;
    ctx.zzMHz = data.zzCrosstalkMHz;

    QuantumCircuit qc(chip.qubitCount());
    std::size_t gates = 0;
    Prng gate_prng(0xAB);
    for (int layer = 0; layer < 10; ++layer) {
        for (std::size_t q : design.xyPlan.lines[0]) {
            qc.rx(q, gate_prng.uniform(-3.0, 3.0));
            ++gates;
        }
        qc.barrier();
    }
    const double per_gate = std::pow(
        estimateFidelity(qc, ctx).fidelity,
        1.0 / static_cast<double>(gates));
    EXPECT_GT(per_gate, 0.9995) << "paper: 99.98%";
}

} // namespace
} // namespace youtiao

// -- Figure 17 (b): 150-qubit parallel-X fidelity ---------------------------

#include "multiplex/frequency_allocation.hpp"
#include "sim/fidelity_estimator.hpp"

namespace youtiao {
namespace {

TEST(ReproductionBands, Fig17bParallelXFidelity)
{
    const ChipTopology chip = makeGridWithQubitCount(150);
    Prng prng(0xF17);
    const ChipCharacterization data = characterizeChip(chip, prng);
    YoutiaoConfig config;
    const YoutiaoDesign design =
        YoutiaoDesigner(config).designFromMeasurements(chip, data);
    const NoiseModel noise(config.noise);
    const FrequencyPlan freq = allocateFrequencies(
        design.xyPlan, data.xyCrosstalk, noise, config.frequency);

    FidelityContext ctx;
    ctx.noise = noise;
    ctx.xyCoupling = data.xyCrosstalk;
    ctx.zzMHz = data.zzCrosstalkMHz;
    ctx.frequencyGHz = freq.frequencyGHz;
    ctx.fdmLineOfQubit = design.xyPlan.lineOfQubit;
    for (std::size_t q = 0; q < chip.qubitCount(); ++q)
        ctx.t1Ns.push_back(chip.qubit(q).t1Ns);

    QuantumCircuit qc(chip.qubitCount());
    for (std::size_t q = 0; q < chip.qubitCount(); ++q)
        qc.rx(q, 3.14159);
    const double f = estimateFidelity(qc, ctx).fidelity;
    // Paper: 94.3%; allow the band [92%, 99%].
    EXPECT_GT(f, 0.92);
    EXPECT_LT(f, 0.99);
}

} // namespace
} // namespace youtiao
