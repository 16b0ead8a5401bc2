/**
 * @file
 * Drift-adaptation evaluation the paper never runs: a 36-qubit chip's
 * FDM wiring replayed over a seeded two-day drift trace (TLS arrivals,
 * band masks, crosstalk random walk) under three policies -- the static
 * allocation the paper ships, seeded FHSS hopping, and incremental
 * re-allocation with the designRobust ladder as backstop.
 *
 * The binary exits nonzero if the replay violates its contract:
 * re-allocation must beat the static allocation on end-of-trace
 * fidelity and must finish with zero spectrum-DRC violations.
 *
 * Robustness flag (stripped before google-benchmark sees argv):
 * --deadline SECONDS cancels the replay cooperatively (exit 3); the
 * figure is pinned by its hard-coded seeds, so a rerun recovers it.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "common/cli_parse.hpp"
#include "common/flight.hpp"

#include "bench_common.hpp"
#include "chip/topology_builder.hpp"
#include "core/drift_adaptation.hpp"

namespace {

using namespace youtiao;

struct Setup
{
    ChipTopology chip = makeSquareGrid(6, 6);
    ChipCharacterization data;
    YoutiaoConfig config;
    YoutiaoDesign design;
    DriftTrace trace;

    Setup()
    {
        Prng prng(0xD41F);
        data = characterizeChip(chip, prng);
        design = YoutiaoDesigner(config)
                     .designFromMeasurements(chip, data);
        DriftConfig drift;
        drift.epochs = 48;
        drift.seed = 0xD21F7;
        trace = simulateDrift(chip.qubitCount(), drift);
    }

    DriftAdaptationResult
    replay(DriftPolicy policy) const
    {
        DriftAdaptationConfig adapt;
        adapt.policy = policy;
        const DriftAdapter adapter(config, adapt);
        return adapter.run(chip, design, data, trace);
    }
};

const Setup &
setup()
{
    static const Setup s;
    return s;
}

/** Prints the comparison and returns true when the contract holds. */
bool
printFigure()
{
    const Setup &s = setup();
    std::printf("Drift adaptation: 36-qubit chip, %zu epochs (%.0f h), "
                "%zu TLS defects in trace\n",
                s.trace.config.epochs,
                s.trace.config.epochs * s.trace.config.hoursPerEpoch,
                s.trace.defects.size());
    bench::rule();

    // The three replays share the trace and the per-epoch circuits, so
    // they fan out without changing a digit of any series.
    const std::vector<DriftPolicy> policies{DriftPolicy::Static,
                                            DriftPolicy::Hopping,
                                            DriftPolicy::Reallocate};
    const std::vector<DriftAdaptationResult> results = bench::tableRows(
        policies, [&](DriftPolicy policy) { return s.replay(policy); });
    std::fputs(driftAdaptationReport(results).c_str(), stdout);

    const DriftAdaptationResult &flat = results[0];
    const DriftAdaptationResult &adapted = results[2];
    const bool beats_static =
        adapted.endFidelity() > flat.endFidelity();
    const bool drc_clean = adapted.totalViolations() == 0;
    std::printf("\nend-of-trace fidelity: static %.2f%% -> reallocate "
                "%.2f%% (%s)\n",
                100.0 * flat.endFidelity(),
                100.0 * adapted.endFidelity(),
                beats_static ? "improved" : "NOT IMPROVED");
    std::printf("reallocate spectrum DRC: %zu violations (%s)\n",
                adapted.totalViolations(),
                drc_clean ? "clean" : "DIRTY");
    return beats_static && drc_clean;
}

void
BM_SimulateDrift(benchmark::State &state)
{
    DriftConfig drift;
    drift.epochs = 48;
    for (auto _ : state)
        benchmark::DoNotOptimize(simulateDrift(36, drift));
}
BENCHMARK(BM_SimulateDrift)->Unit(benchmark::kMicrosecond);

void
BM_BuildHopPlan(benchmark::State &state)
{
    const Setup &s = setup();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            buildHopPlan(s.design.xyPlan, s.design.frequencyPlan));
    }
}
BENCHMARK(BM_BuildHopPlan)->Unit(benchmark::kMicrosecond);

void
BM_ReallocateReplay(benchmark::State &state)
{
    const Setup &s = setup();
    for (auto _ : state)
        benchmark::DoNotOptimize(s.replay(DriftPolicy::Reallocate));
}
BENCHMARK(BM_ReallocateReplay)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    // Strip the robustness flag before google-benchmark parses argv.
    double deadline_s = 0.0;
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "error: %s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--deadline")
            deadline_s =
                youtiao::parsePositiveDoubleArg(next(), "--deadline");
        else
            argv[kept++] = argv[i];
    }
    argc = kept;

    youtiao::bench::PerfReport perf("drift_adaptation", argc, argv);
    if (deadline_s > 0.0)
        youtiao::cancel::armDeadline(deadline_s);
    bool ok = false;
    try {
        ok = printFigure();
    } catch (const youtiao::cancel::Cancelled &e) {
        youtiao::flight::dump("cancelled");
        std::fprintf(stderr, "error: %s\n", e.what());
        return 3;
    }
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return ok ? 0 : 1;
}
