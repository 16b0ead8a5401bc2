/**
 * @file
 * Reproduces paper Figure 17: large-scale wiring estimation.
 *  (a) Coax cables for square systems of 10..1000 qubits, Google vs
 *      YOUTIAO (paper: >2.3x reduction; 150 qubits: 613 -> 267).
 *  (b) Parallel-X fidelity across all 150 qubits (paper: 94.3%).
 *  (c) IBM chiplet scale-out comparison (paper: ~3.4x cable reduction).
 *  (d) 1k..100k qubits: cable count and dollar savings (paper: 3.1x,
 *      >$2.3B saved; our theta=4 mix yields 2.3x / $1.5B -- see
 *      EXPERIMENTS.md).
 *  (e) Hot-path profile (not a paper figure): full designer + routing
 *      on an 80-qubit system, feeding the perf record that
 *      tools/perf_check compares against bench/baselines/.
 *  (f) Hierarchical scale-out (DESIGN.md section 10): tiled designer +
 *      stitched routing on a 1024-qubit system, cross-checked against
 *      the analytic estimate; its hier.* / corridor.* phases join the
 *      perf record.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <numbers>

#include "bench_common.hpp"
#include "core/scalability.hpp"
#include "multiplex/fdm.hpp"
#include "multiplex/frequency_allocation.hpp"
#include "routing/chip_router.hpp"
#include "sim/fidelity_estimator.hpp"

namespace {

using namespace youtiao;

void
printPartA()
{
    std::printf("Figure 17 (a): coax cables, 10 - 1000 qubit square "
                "systems\n");
    bench::rule();
    std::printf("%8s %10s %10s %10s\n", "#qubits", "Google", "YOUTIAO",
                "reduction");
    const std::vector<std::size_t> sizes{10, 30, 100, 150, 300, 600,
                                         1000};
    const std::vector<ScalePoint> points = bench::tableRows(
        sizes, [](std::size_t n) { return estimateSquareSystem(n); });
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        const ScalePoint &p = points[i];
        std::printf("%8zu %10zu %10zu %9.2fx\n", sizes[i], p.googleCoax,
                    p.youtiaoCoax, p.coaxReduction());
    }
    std::printf("(paper at 150 qubits: 613 -> 267, 2.3x)\n\n");
}

void
printPartB()
{
    std::printf("Figure 17 (b): simultaneous X gates on all 150 "
                "qubits\n");
    bench::rule();
    const ChipTopology chip = makeGridWithQubitCount(150);
    Prng prng(0xF17);
    const ChipCharacterization data = characterizeChip(chip, prng);
    YoutiaoConfig config;
    const YoutiaoDesign design =
        bench::designFromMeasurements(chip, data, config);
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
        qc.rx(q, std::numbers::pi);
    const double f = estimateFidelity(qc, ctx).fidelity;
    std::printf("all-qubit X fidelity: %.1f%%  (paper: 94.3%%)\n\n",
                100.0 * f);
}

void
printPartC()
{
    std::printf("Figure 17 (c): IBM chiplet scale-out comparison\n");
    bench::rule();
    std::printf("%8s %10s %12s %10s %10s\n", "copies", "qubits",
                "IBM cables", "YOUTIAO", "reduction");
    const std::vector<std::size_t> copies_sweep{1, 5, 10, 25};
    const std::vector<ChipletComparison> rows = bench::tableRows(
        copies_sweep,
        [](std::size_t copies) { return compareIbmChiplet(copies); });
    for (const ChipletComparison &cmp : rows) {
        std::printf("%8zu %10zu %12zu %10zu %9.2fx\n", cmp.copies,
                    cmp.totalQubits, cmp.ibmCoax, cmp.youtiaoCoax,
                    cmp.cableReduction());
    }
    std::printf("(paper at 25 copies of 133-qubit chips: ~3.5x)\n\n");
}

void
printPartD()
{
    std::printf("Figure 17 (d): 1k - 100k qubit systems\n");
    bench::rule();
    std::printf("%8s %10s %10s %10s %14s\n", "#qubits", "Google",
                "YOUTIAO", "fraction", "savings");
    const std::vector<std::size_t> sizes{1000, 10000, 50000, 100000};
    const std::vector<ScalePoint> points = bench::tableRows(
        sizes, [](std::size_t n) { return estimateSquareSystem(n); });
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        const std::size_t n = sizes[i];
        const ScalePoint &p = points[i];
        std::printf("%8zu %10zu %10zu %9.0f%% %14s\n", n, p.googleCoax,
                    p.youtiaoCoax,
                    100.0 * static_cast<double>(p.youtiaoCoax) /
                        static_cast<double>(p.googleCoax),
                    bench::money(p.googleCostUsd - p.youtiaoCostUsd)
                        .c_str());
    }
    std::printf("(paper at 100k: 4.4e5 cables -> 32%%, >$2.3B saved; "
                "our theta=4 mix: ~44%%, ~$1.5B)\n\n");
}

/**
 * Hot-path profile for the perf record: the full designer (forest fit,
 * crosstalk prediction, frequency allocation) plus chip routing on one
 * 80-qubit square system, so BENCH_fig17_scalability.json carries the
 * design.*, noise.* and routing/astar phases tools/perf_check tracks.
 */
void
printPartE()
{
    std::printf("Hot-path profile: full designer + routing, 80 "
                "qubits\n");
    bench::rule();
    const ChipTopology chip = makeGridWithQubitCount(80);
    Prng prng(0xF17E);
    const ChipCharacterization data = characterizeChip(chip, prng);
    YoutiaoConfig config;
    const YoutiaoDesigner designer(config);
    const YoutiaoDesign design = designer.design(chip, data);
    const FdmPlan readout =
        groupFdmLocalCluster(chip, config.cost.readoutFeedCapacity);
    const auto nets =
        buildWiringNets(chip, design.xyPlan, design.zPlan, readout);
    const ChipRoutingResult route = routeChip(chip, nets);
    std::printf("%zu nets routed, %zu crossovers, %.1f mm^2 routing "
                "area\n\n",
                route.netCount, route.crossovers.size(),
                route.routingAreaMm2);
}

/**
 * Hierarchical scale-out: the tiled designer and stitched routing on a
 * 1024-qubit grid (16 tiles of 64), with the merged coax tally audited
 * against the closed-form Figure 17 curve. The hier.design, hier.route
 * and corridor.route phases feed the perf record.
 */
void
printPartF()
{
    std::printf("Figure 17 (f): hierarchical design + routing, 1024 "
                "qubits\n");
    bench::rule();
    const ChipTopology chip = makeGridWithQubitCount(1024);
    const HierarchicalDesigner designer;
    const HierarchicalDesign design = designer.designSynthesized(chip);
    const HierarchicalRouting routing = routeHierarchical(chip, design);
    const HierarchicalCrossCheck check =
        crossCheckHierarchicalCounts(chip, design);
    std::printf("%zu tiles, %zu seam couplers, %zu seam retunes "
                "(%zu above epsilon)\n",
                design.tiles.size(), design.seamCouplers.size(),
                design.seamRetunes, design.seamViolationsUnresolved);
    std::printf("%zu nets routed, %zu failed, DRC %s, max corridor "
                "width %.2f mm\n",
                routing.totalNets, routing.failedConnections,
                routing.clean() ? "clean" : "DIRTY",
                routing.corridor.maxCorridorWidthMm);
    std::printf("coax %zu vs analytic %zu (%.2fx, band [%.1f, %.1f] "
                "%s)\n\n",
                check.actualCoax, check.analyticCoax, check.ratio,
                check.bandLo, check.bandHi,
                check.withinBand ? "ok" : "OUTSIDE");
}

void
BM_EstimateSquareSystem(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(estimateSquareSystem(n));
}
BENCHMARK(BM_EstimateSquareSystem)->Arg(150)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void
BM_GridConstruction(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(makeGridWithQubitCount(n));
}
BENCHMARK(BM_GridConstruction)->Arg(1000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    youtiao::bench::PerfReport perf("fig17_scalability", argc, argv);
    printPartA();
    printPartB();
    printPartC();
    printPartD();
    printPartE();
    printPartF();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
