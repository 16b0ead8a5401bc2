/**
 * @file
 * One chip through the CLI-shaped pipeline (chip load -> characterization
 * fit -> design -> route -> fidelity estimate -> artifact write/reload),
 * with every call into a library layer timed from outside.
 *
 * Each layer call runs inside a trace::TraceSpan (category "bench") and a
 * steady_clock reading filed under the layer's metric name. Layer calls
 * never nest, so a layer's self time is its own duration and the rest of
 * the chip's wall time is "unattributed".
 */

#ifndef YOUTIAO_PERFBENCH_PIPELINE_HPP
#define YOUTIAO_PERFBENCH_PIPELINE_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "checks.hpp"
#include "chip/topology_builder.hpp"
#include "core/config.hpp"
#include "noise/crosstalk_data.hpp"

namespace perfbench {

/** How one chip goes through the pipeline. */
enum class JobKind {
    /** Flat designer, routing and fidelity (youtiao_cli --route). */
    FlatRouted,
    /** Flat designer and fidelity, no routing. */
    FlatDesign,
    /** Tiled designer, tile + corridor routing, binary artifacts. */
    Hierarchical,
};

/** One chip of a workload. */
struct JobSpec
{
    std::string name;
    JobKind kind = JobKind::FlatRouted;
    youtiao::TopologyFamily family = youtiao::TopologyFamily::Square;
    std::size_t rows = 6;
    std::size_t cols = 6;
    /** Qubits per tile (Hierarchical only). */
    std::size_t tileQubits = 64;
};

/** Inputs made during set-up, reused by every pass. */
struct JobInput
{
    JobSpec spec;
    /** Text chip file (flat) or binary chip file (hierarchical). */
    std::string chipPath;
    /** Where the pass writes the design artifact (hierarchical: the
     *  prefix of one file per tile). */
    std::string artifactPath;
    /** Seeded calibration data (flat only; the tiled designer
     *  characterizes each tile itself). */
    youtiao::ChipCharacterization data;
    youtiao::YoutiaoConfig config;
    /** Seed of the benchmark circuit(s) whose fidelity is estimated. */
    std::uint64_t circuitSeed = 0;
};

/** Wall seconds elapsed since @p start. */
inline double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/** Build the chip, write its file and characterize it, all from @p seed. */
JobInput prepareJob(const JobSpec &spec, std::uint64_t seed,
                    std::size_t index, const std::string &work_dir);

/** Wall seconds per layer metric name ("routing.route_s", ...). */
using LayerSeconds = std::map<std::string, double>;

/** What one chip's pipeline produced and what it cost. */
struct JobResult
{
    /** Wall and process-CPU seconds of the timed pipeline (checks
     *  excluded). */
    double wallS = 0.0;
    double cpuS = 0.0;
    LayerSeconds layers;
    /** Process CPU seconds spent inside routeHierarchical. */
    double hierRouteCpuS = 0.0;

    // Design quality (deterministic for a seed).
    double costUsd = 0.0;
    double interfaces = 0.0;
    double wireLengthMm = 0.0;
    double crossovers = 0.0;
    double seamCrosstalkMax = 0.0;
    /** Per-gate fidelity of one benchmark circuit per chip (flat) or
     *  per tile (hierarchical). */
    std::vector<double> perGateFidelity;

    // Work counts read from the results.
    std::size_t nets = 0;
    std::size_t fallbackNets = 0;
    std::size_t tiles = 0;
    std::size_t seamRetunes = 0;
    /** Cross-seam pairs the stitch left above its epsilon (a quality
     *  figure, not a failed check: the stitch is best effort). */
    std::size_t seamViolations = 0;
    std::size_t peakArenaBytes = 0;
    /** The saved design artifact (digest input). */
    std::string artifact;

    /** Failed checks; empty when the chip is a successful op. */
    Problems problems;
};

/** Run @p input through its pipeline once, then check the outputs. */
JobResult runJob(const JobInput &input);

} // namespace perfbench

#endif // YOUTIAO_PERFBENCH_PIPELINE_HPP
