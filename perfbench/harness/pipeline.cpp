#include "pipeline.hpp"

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <fstream>
#include <iterator>
#include <utility>

#include "chip/chip_bin.hpp"
#include "chip/chip_io.hpp"
#include "circuit/benchmarks.hpp"
#include "circuit/transpiler.hpp"
#include "common/atomic_io.hpp"
#include "common/prng.hpp"
#include "common/trace.hpp"
#include "core/design_bin.hpp"
#include "core/hierarchical.hpp"
#include "core/serialization.hpp"
#include "routing/drc.hpp"

namespace perfbench {

using namespace youtiao;

namespace {

double
processCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               1e-6 * static_cast<double>(tv.tv_usec);
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/** Call @p fn as layer @p name: one span, one clock reading. */
template <class Fn>
auto
timed(LayerSeconds &layers, const char *name, Fn &&fn)
{
    const trace::TraceSpan span(name, "bench");
    const auto start = std::chrono::steady_clock::now();
    auto result = fn();
    layers[name] += secondsSince(start);
    return result;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/**
 * The timed part of one chip's pipeline: wall and process-CPU clocks and
 * a "bench.chip" trace event, stopped after the last layer call so the
 * checks that follow are not billed to the pipeline.
 */
class ChipClock
{
  public:
    void stop(JobResult &out)
    {
        if (stopped_)
            return;
        stopped_ = true;
        out.wallS = secondsSince(start_);
        out.cpuS = processCpuSeconds() - cpuStart_;
        if (trace::enabled()) {
            trace::Tracer &tracer = trace::Tracer::global();
            tracer.recordComplete("bench.chip", "bench", traceStartNs_,
                                  tracer.nowNs() - traceStartNs_);
        }
    }

  private:
    std::uint64_t traceStartNs_ =
        trace::enabled() ? trace::Tracer::global().nowNs() : 0;
    std::chrono::steady_clock::time_point start_ =
        std::chrono::steady_clock::now();
    double cpuStart_ = processCpuSeconds();
    bool stopped_ = false;
};

/** fidelity^(1/gates) of @p physical under @p ctx. */
double
perGateFidelity(const QuantumCircuit &physical, const FidelityContext &ctx)
{
    const double f = estimateFidelity(physical, ctx).fidelity;
    return std::pow(f, 1.0 / static_cast<double>(physical.gateCount()));
}

QuantumCircuit
transpiledCircuit(const ChipTopology &chip, std::uint64_t seed)
{
    Prng prng(seed);
    return transpile(makeBenchmark(BenchmarkKind::VQC, chip.qubitCount(),
                                   prng),
                     chip)
        .physical;
}

void
runFlat(const JobInput &input, ChipClock &clock, JobResult &out)
{
    LayerSeconds &layers = out.layers;
    const bool route = input.spec.kind == JobKind::FlatRouted;
    const ChipTopology chip = timed(layers, "chip.load_s", [&] {
        return loadChipAuto(input.chipPath);
    });
    const auto models = timed(layers, "noise.fit_s", [&] {
        return std::make_pair(
            CrosstalkModel::fit(input.data.xySamples, input.config.fit),
            CrosstalkModel::fit(input.data.zzSamples, input.config.fit));
    });
    const YoutiaoDesigner designer(input.config);
    Expected<YoutiaoDesign, DesignError> designed =
        timed(layers, "core.design_s", [&] {
            return designer.designWithModelsRobust(chip, models.first,
                                                   models.second);
        });
    if (!designed.hasValue()) {
        out.problems.push_back("design failed: " +
                               designed.error().toString());
        return;
    }
    const YoutiaoDesign &design = designed.value();

    std::vector<NetSpec> nets;
    RoutedWiring routed;
    DrcReport drc;
    if (route) {
        nets = timed(layers, "routing.build_nets_s", [&] {
            return buildWiringNets(chip, design.xyPlan, design.zPlan,
                                   design.readoutPlan);
        });
        routed = timed(layers, "routing.route_s", [&] {
            return routeChipWithFallback(chip, nets);
        });
        drc = timed(layers, "routing.drc_s", [&] {
            return routed.result.grid.has_value()
                       ? checkRoutingDrc(*routed.result.grid,
                                         routed.result.netCount,
                                         routed.result.crossovers)
                       : DrcReport{false, {"no routing grid"}};
        });
    }

    const QuantumCircuit physical = timed(
        layers, "circuit.transpile_s",
        [&] { return transpiledCircuit(chip, input.circuitSeed); });
    const double fidelity = timed(layers, "sim.fidelity_s", [&] {
        return perGateFidelity(physical,
                               designer.makeFidelityContext(chip, design));
    });

    out.artifact = timed(layers, "io.save_s", [&] {
        std::string text = designToString(design);
        io::atomicWriteFile(input.artifactPath, text);
        return text;
    });
    const YoutiaoDesign reloaded = timed(layers, "io.reload_s", [&] {
        return designFromString(readFile(input.artifactPath));
    });
    clock.stop(out);

    // Untimed from here: outcome tally and checks.
    out.costUsd = design.costUsd;
    out.interfaces = static_cast<double>(design.counts.interfaces());
    out.perGateFidelity.push_back(fidelity);
    if (designToString(reloaded) != out.artifact)
        out.problems.push_back("design artifact does not reload "
                               "identically");
    checkDesign(chip, design, input.config.fdm.lineCapacity,
                input.config.cost.readoutFeedCapacity, out.problems);
    if (!route)
        return;
    const ChipRoutingResult &result = routed.result;
    out.interfaces += static_cast<double>(routed.dedicatedNetFallbacks) -
                      static_cast<double>(routed.fallbackNets.size());
    out.wireLengthMm = result.totalLengthMm;
    out.crossovers = static_cast<double>(result.crossovers.size());
    out.nets = result.netCount;
    out.fallbackNets = routed.fallbackNets.size();
    if (result.failedConnections > 0)
        out.problems.push_back(std::to_string(result.failedConnections) +
                               " failed connections");
    for (const std::string &v : drc.violations)
        out.problems.push_back("DRC: " + v);
    if (!drc.clean && drc.violations.empty())
        out.problems.push_back("DRC not clean");
    checkNetsConnected(nets, routed, input.spec.name, out.problems);
}

std::string
tilePath(const JobInput &input, std::size_t tile)
{
    return input.artifactPath + ".tile" + std::to_string(tile);
}

void
runHierarchical(const JobInput &input, ChipClock &clock, JobResult &out)
{
    LayerSeconds &layers = out.layers;
    const ChipTopology chip = timed(layers, "chip.load_s", [&] {
        return loadChipAuto(input.chipPath);
    });
    HierarchicalConfig hier;
    hier.tileSizeQubits = input.spec.tileQubits;
    const HierarchicalDesigner designer(input.config, hier);
    Expected<HierarchicalDesign, DesignError> designed =
        timed(layers, "hier.design_s", [&] {
            return designer.designSynthesizedRobust(chip, 0.6);
        });
    if (!designed.hasValue()) {
        out.problems.push_back("hierarchical design failed: " +
                               designed.error().toString());
        return;
    }
    const HierarchicalDesign &design = designed.value();
    const double cpu_before = processCpuSeconds();
    const HierarchicalRouting routing = timed(layers, "hier.route_s", [&] {
        return routeHierarchical(chip, design);
    });
    out.hierRouteCpuS = processCpuSeconds() - cpu_before;

    // One benchmark circuit per tile, on the tile's own wiring with the
    // stitched (post-retune) frequencies.
    const std::vector<QuantumCircuit> circuits =
        timed(layers, "circuit.transpile_s", [&] {
            std::vector<QuantumCircuit> all;
            for (std::size_t t = 0; t < design.tiles.size(); ++t)
                all.push_back(
                    transpiledCircuit(design.tiles[t].chip,
                                      taskSeed(input.circuitSeed, t)));
            return all;
        });
    out.perGateFidelity = timed(layers, "sim.fidelity_s", [&] {
        const YoutiaoDesigner tile_designer(input.config);
        std::vector<double> fidelities;
        for (std::size_t t = 0; t < design.tiles.size(); ++t) {
            const HierarchicalTile &tile = design.tiles[t];
            FidelityContext ctx =
                tile_designer.makeFidelityContext(tile.chip, tile.design);
            for (std::size_t q = 0; q < tile.qubits.size(); ++q)
                ctx.frequencyGHz[q] =
                    design.merged.frequencyPlan.frequencyGHz[tile.qubits[q]];
            fidelities.push_back(perGateFidelity(circuits[t], ctx));
        }
        return fidelities;
    });

    // The merged design keeps no chip-wide predicted matrices, which both
    // design formats require, so the artifact is one binary design file
    // per tile.
    const std::vector<std::vector<unsigned char>> blobs =
        timed(layers, "io.save_s", [&] {
            std::vector<std::vector<unsigned char>> all;
            for (std::size_t t = 0; t < design.tiles.size(); ++t) {
                all.push_back(designToBinary(design.tiles[t].design));
                io::atomicWriteFile(tilePath(input, t), all.back().data(),
                                    all.back().size());
            }
            return all;
        });
    const std::vector<YoutiaoDesign> reloaded =
        timed(layers, "io.reload_s", [&] {
            std::vector<YoutiaoDesign> all;
            for (std::size_t t = 0; t < design.tiles.size(); ++t)
                all.push_back(loadDesignBinary(tilePath(input, t)));
            return all;
        });
    clock.stop(out);

    // Untimed from here: outcome tally and checks.
    for (std::size_t t = 0; t < blobs.size(); ++t) {
        out.artifact.append(blobs[t].begin(), blobs[t].end());
        if (designToBinary(reloaded[t]) != blobs[t])
            out.problems.push_back("tile " + std::to_string(t) +
                                   " design artifact does not reload "
                                   "identically");
    }
    out.costUsd = design.merged.costUsd;
    out.interfaces = static_cast<double>(design.merged.counts.interfaces());
    out.seamCrosstalkMax = design.maxSeamCrosstalk;
    out.tiles = design.tiles.size();
    out.seamRetunes = design.seamRetunes;
    out.seamViolations = design.seamViolationsUnresolved;
    out.peakArenaBytes = routing.peakArenaBytes;
    out.nets = routing.totalNets;
    out.wireLengthMm = routing.totalLengthMm;
    checkDesign(chip, design.merged, input.config.fdm.lineCapacity,
                input.config.cost.readoutFeedCapacity, out.problems);
    if (!routing.clean())
        out.problems.push_back(
            "hierarchical routing not clean: " +
            std::to_string(routing.failedConnections) +
            " failed connections, " +
            std::to_string(routing.corridor.failedNets) +
            " failed corridor nets");
    const HierarchicalRoutingConfig routing_config;
    for (std::size_t t = 0; t < design.tiles.size(); ++t) {
        const HierarchicalTile &tile = design.tiles[t];
        const RoutedWiring &wiring = routing.tiles[t];
        out.crossovers +=
            static_cast<double>(wiring.result.crossovers.size());
        out.fallbackNets += wiring.fallbackNets.size();
        out.interfaces += static_cast<double>(wiring.dedicatedNetFallbacks) -
                          static_cast<double>(wiring.fallbackNets.size());
        for (const std::string &v : routing.tileDrc[t].violations)
            out.problems.push_back("tile " + std::to_string(t) +
                                   " DRC: " + v);
        checkNetsConnected(buildWiringNets(tile.chip, tile.design.xyPlan,
                                           tile.design.zPlan,
                                           tile.design.readoutPlan,
                                           routing_config.tile),
                           wiring, "tile " + std::to_string(t),
                           out.problems);
    }
}

} // namespace

JobInput
prepareJob(const JobSpec &spec, std::uint64_t seed, std::size_t index,
           const std::string &work_dir)
{
    JobInput input;
    input.spec = spec;
    const ChipTopology chip =
        makeTopology(spec.family, spec.rows, spec.cols);
    const std::string stem =
        work_dir + "/" + std::to_string(index) + "-" + spec.name;
    input.artifactPath = stem + ".design";
    // youtiao_cli's defaults.
    input.config.seed = seed;
    input.config.fdm.lineCapacity = 5;
    input.config.tdm.parallelismThreshold = 4.0;
    input.config.fit.forest.treeCount = 25;
    input.circuitSeed = taskSeed(seed, 0xC1C0 + index);
    if (spec.kind == JobKind::Hierarchical) {
        input.chipPath = stem + ".chipbin";
        saveChipBinary(input.chipPath, chip);
        return input;
    }
    input.chipPath = stem + ".chip";
    io::atomicWriteFile(input.chipPath, chipToString(chip));
    Prng prng(taskSeed(seed, index));
    input.data = characterizeChip(chip, prng);
    return input;
}

JobResult
runJob(const JobInput &input)
{
    JobResult out;
    ChipClock clock;
    try {
        if (input.spec.kind == JobKind::Hierarchical)
            runHierarchical(input, clock, out);
        else
            runFlat(input, clock, out);
    } catch (const std::exception &e) {
        out.problems.push_back(std::string("exception: ") + e.what());
    }
    clock.stop(out); // no-op unless the pipeline stopped early
    return out;
}

} // namespace perfbench
