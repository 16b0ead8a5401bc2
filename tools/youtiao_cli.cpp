/**
 * @file
 * youtiao_cli -- design the multiplexed wiring of a chip from the shell.
 *
 *   youtiao_cli [--topology NAME] [--rows N] [--cols N] [--seed S]
 *               [--capacity K] [--theta T] [--compare] [--profile]
 *               [--route] [--hierarchical] [--tile-size N]
 *               [--hop] [--hop-save FILE]
 *               [--drift-trace FILE] [--drift-epochs N]
 *               [--trace FILE] [--inject-faults SPEC]
 *               [--deadline SECONDS]
 *               [--log-level LEVEL]
 *
 * Topologies: square, hexagon, heavy-square, heavy-hexagon, low-density,
 * grid (with --rows/--cols). Prints the full wiring report; --compare
 * adds the dedicated-wiring baseline bill; --profile appends the
 * per-phase wall-clock table, counters, and latency histograms of the
 * design pipeline. --route also routes the wiring nets on the chip and
 * prints a routing summary. --hierarchical switches to the tiled
 * scale-out pipeline (hierarchical.hpp): per-tile synthetic
 * characterization and design, boundary stitching, and (with --route)
 * tile-level maze routing plus seam-corridor routing; --tile-size sets
 * the qubits per tile and the process exits 1 if the stitched routing
 * is not DRC-clean. --trace FILE records a span timeline of the
 * run as Chrome trace-event JSON (schema "youtiao-trace-1", open in
 * Perfetto or chrome://tracing) and implies --route so the timeline
 * covers per-net routing work. --inject-faults SPEC (also the
 * YOUTIAO_FAULTS environment variable) arms deterministic fault
 * injection at the pipeline's named sites -- grammar
 * site[:rate[:seed]][,...], see docs/FAULT_INJECTION.md; the design
 * then runs through the graceful-degradation pipeline and any
 * concessions are appended to the report. --hop appends the design's
 * seeded FHSS hop schedule (one channel table + rotation sequence per
 * FDM line); --hop-save FILE writes it as JSON (schema youtiao-hop-1).
 * --drift-trace FILE simulates a seeded drift trace (--drift-epochs
 * epochs, default 48) over the designed chip, replays it under the
 * static / hopping / re-allocating policies, prints the comparison
 * table and writes trace + per-policy series as JSON (schema
 * youtiao-drift-adaptation-1). --log-level raises the
 * structured-log threshold (error|warn|info|debug; also YOUTIAO_LOG).
 *
 * Observability: the crash flight recorder is armed on startup
 * (FLIGHT_youtiao_cli.json on a fatal signal, uncaught exception, or
 * DesignError; see common/flight.hpp), and when $YOUTIAO_RUN_LEDGER is
 * set every invocation appends its run record (schema
 * "youtiao-perf-5", benchmark "youtiao_cli") with argv, input hashes,
 * wall/CPU time, peak RSS, exit status and phase timings, ready for
 * trend analysis with tools/perf_trend. Both are observation-only: the
 * designed wiring is byte-identical with or without them.
 *
 * Robustness: --deadline SECONDS arms a cooperative deadline
 * (common/cancel.hpp); a run that exceeds it aborts cleanly with a
 * structured deadline_exceeded error, a flight dump, and exit code 3.
 * Every run is a pure function of (chip, seed, configuration), so
 * rerunning an interrupted run is its recovery: the rerun writes the
 * same bytes. All artifact files are written atomically (temp + fsync +
 * rename), so an interrupted run never leaves a torn artifact behind.
 *
 * Exit codes: 0 success, 1 runtime failure (including structured design
 * failures), 2 usage / bad argument (including chip files that fail to
 * parse), 3 cancelled / deadline exceeded.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "chip/chip_bin.hpp"
#include "chip/chip_io.hpp"
#include "chip/topology_builder.hpp"
#include "common/atomic_io.hpp"
#include "common/cancel.hpp"
#include "common/cli_parse.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/flight.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/runledger.hpp"
#include "core/hierarchical.hpp"
#include "common/trace.hpp"
#include "core/baselines.hpp"
#include "core/drift_adaptation.hpp"
#include "core/report.hpp"
#include "core/serialization.hpp"
#include "core/youtiao.hpp"
#include "routing/chip_router.hpp"

namespace {

using namespace youtiao;

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--topology square|hexagon|heavy-square|heavy-hexagon|"
        "low-density|grid]\n"
        "          [--rows N] [--cols N] [--seed S] [--capacity K] "
        "[--theta T] [--compare]\n"
        "          [--save FILE] [--chip FILE] [--save-chip-bin FILE] "
        "[--profile]\n"
        "          [--route]\n"
        "          [--hierarchical] [--tile-size N]\n"
        "          [--hop] [--hop-save FILE] [--drift-trace FILE] "
        "[--drift-epochs N]\n"
        "          [--trace FILE] [--inject-faults SPEC]\n"
        "          [--deadline SECONDS]\n"
        "          [--log-level error|warn|info|debug]\n"
        "  --rows/--cols/--capacity take integers >= 1, --theta a "
        "positive number;\n"
        "  --chip loads a chip file, text or binary (recognized by "
        "magic);\n"
        "  --save-chip-bin writes the chip as a binary YTCHPBIN file "
        "and exits;\n"
        "  --profile appends the per-phase wall-clock table, counters "
        "and histograms;\n"
        "  --route also routes the wiring nets and prints a summary;\n"
        "  --hierarchical designs the chip tile by tile (--tile-size "
        "qubits per\n"
        "  tile, default 64) with boundary stitching and corridor "
        "routing; exits 1\n"
        "  if the stitched routing fails DRC;\n"
        "  --hop appends the seeded FHSS hop schedule; --hop-save FILE "
        "writes it as\n"
        "  JSON; --drift-trace FILE replays a seeded drift trace "
        "(--drift-epochs\n"
        "  epochs, default 48) under the static/hopping/re-allocating "
        "policies and\n"
        "  writes trace + results as JSON;\n"
        "  --trace FILE writes a Chrome trace-event timeline of the run "
        "(implies\n"
        "  --route); --inject-faults arms deterministic fault injection "
        "(grammar\n"
        "  site[:rate[:seed]][,...]; also YOUTIAO_FAULTS);\n"
        "  --deadline SECONDS cancels the run cooperatively when the "
        "budget runs\n"
        "  out (exit 3); rerunning is the recovery of an interrupted "
        "run;\n"
        "  --log-level sets the structured-log threshold (also the "
        "YOUTIAO_LOG\n"
        "  environment variable)\n",
        argv0);
    std::exit(2);
}

} // namespace

int
runCli(int argc, char **argv, runledger::Recorder &recorder)
{
    std::string topology = "grid";
    std::size_t rows = 6, cols = 6;
    std::uint64_t seed = 2025;
    std::size_t capacity = 5;
    double theta = 4.0;
    bool compare = false;
    bool profile = false;
    bool route = false;
    bool hierarchical = false;
    std::size_t tile_size = 64;
    std::string save_path;
    std::string chip_path;
    std::string save_chip_bin_path;
    std::string trace_path;
    std::string fault_spec;
    bool hop = false;
    std::string hop_save_path;
    std::string drift_path;
    std::size_t drift_epochs = 48;
    double deadline_s = 0.0;

    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto next = [&]() -> const char * {
                if (i + 1 >= argc)
                    usage(argv[0]);
                return argv[++i];
            };
            if (arg == "--topology")
                topology = next();
            else if (arg == "--rows")
                rows = parseSizeArg(next(), "--rows");
            else if (arg == "--cols")
                cols = parseSizeArg(next(), "--cols");
            else if (arg == "--seed")
                seed = parseUint64Arg(next(), "--seed");
            else if (arg == "--capacity")
                capacity = parseSizeArg(next(), "--capacity");
            else if (arg == "--theta")
                theta = parsePositiveDoubleArg(next(), "--theta");
            else if (arg == "--compare")
                compare = true;
            else if (arg == "--profile")
                profile = true;
            else if (arg == "--route")
                route = true;
            else if (arg == "--hierarchical")
                hierarchical = true;
            else if (arg == "--tile-size")
                tile_size = parseSizeArg(next(), "--tile-size");
            else if (arg == "--save")
                save_path = next();
            else if (arg == "--chip")
                chip_path = next();
            else if (arg == "--save-chip-bin")
                save_chip_bin_path = next();
            else if (arg == "--hop")
                hop = true;
            else if (arg == "--hop-save")
                hop_save_path = next();
            else if (arg == "--drift-trace")
                drift_path = next();
            else if (arg == "--drift-epochs")
                drift_epochs = parseSizeArg(next(), "--drift-epochs");
            else if (arg == "--trace")
                trace_path = next();
            else if (arg == "--deadline")
                deadline_s =
                    parsePositiveDoubleArg(next(), "--deadline");
            else if (arg == "--inject-faults")
                fault_spec = next();
            else if (arg == "--log-level") {
                const char *name = next();
                if (!log::setLevelByName(name)) {
                    std::fprintf(stderr,
                                 "error: unknown log level '%s'\n", name);
                    return 2;
                }
            } else
                usage(argv[0]);
        }
        // A malformed fault spec is a bad argument, caught here; the
        // environment spec goes through the same validation.
        if (!fault_spec.empty()) {
            fault::configure(fault_spec);
            fault::enable();
        } else {
            fault::configureFromEnv();
        }
    } catch (const ConfigError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
    // The hierarchical path has its own report, routing and exit
    // semantics; flags tied to the flat single-design flow are rejected
    // up front rather than silently ignored.
    if (hierarchical &&
        (!save_path.empty() || compare || !fault_spec.empty() || hop ||
         !hop_save_path.empty() || !drift_path.empty())) {
        std::fprintf(stderr,
                     "error: --hierarchical is incompatible with "
                     "--save, --compare, --inject-faults, --hop, "
                     "--hop-save and --drift-trace\n");
        return 2;
    }
    // A trace without the routing stage would miss the per-net spans
    // that make the timeline worth reading.
    if (!trace_path.empty())
        route = true;

    TopologyFamily family;
    if (topology == "square")
        family = TopologyFamily::Square;
    else if (topology == "hexagon")
        family = TopologyFamily::Hexagon;
    else if (topology == "heavy-square")
        family = TopologyFamily::HeavySquare;
    else if (topology == "heavy-hexagon")
        family = TopologyFamily::HeavyHexagon;
    else if (topology == "low-density")
        family = TopologyFamily::LowDensity;
    else if (topology == "grid")
        family = TopologyFamily::SquareGrid;
    else
        usage(argv[0]);

    try {
        ChipTopology chip;
        if (chip_path.empty()) {
            chip = makeTopology(family, rows, cols);
        } else {
            try {
                // Text or binary, told apart by the leading magic.
                chip = loadChipAuto(chip_path);
            } catch (const ConfigError &e) {
                // A chip file that cannot be read or does not parse is
                // a bad argument, reported with a usage exit code.
                std::fprintf(stderr, "error: %s\n", e.what());
                return 2;
            }
        }
        if (!save_chip_bin_path.empty()) {
            // Conversion mode: write the chip (built or loaded) as a
            // binary file and stop -- no design work.
            saveChipBinary(save_chip_bin_path, chip);
            std::printf("chip saved to %s (%zu qubits, %zu couplers, "
                        "binary)\n",
                        save_chip_bin_path.c_str(), chip.qubitCount(),
                        chip.couplerCount());
            return 0;
        }
        if (!trace_path.empty())
            trace::Tracer::global().enable();

        YoutiaoConfig config;
        config.seed = seed;
        config.fdm.lineCapacity = capacity;
        config.tdm.parallelismThreshold = theta;
        config.fit.forest.treeCount = 25;

        // Input provenance for the run ledger: identical inputs hash
        // identically, so drift in a record's hashes flags a changed
        // chip or configuration before anyone compares timings.
        if (runledger::ledgerConfigured()) {
            recorder.hashBytes("chip", chipToString(chip));
            recorder.setHash("seed", std::to_string(seed));
            recorder.hashBytes(
                "config",
                "topology=" + topology +
                    ",capacity=" + std::to_string(capacity) +
                    ",theta=" + std::to_string(theta) +
                    ",hierarchical=" + (hierarchical ? "1" : "0") +
                    ",tile_size=" + std::to_string(tile_size) +
                    ",faults=" + fault_spec);
        }

        if (deadline_s > 0.0)
            cancel::armDeadline(deadline_s);

        if (hierarchical) {
            // Tiled scale-out: per-tile synthetic characterization
            // (O(tile^2), not O(chip^2) -- the global matrices would
            // not fit memory at 10k+ qubits), per-tile design on the
            // pool, boundary stitch, corridor routing.
            HierarchicalConfig hier;
            hier.tileSizeQubits = tile_size;
            const HierarchicalDesigner hdesigner(config, hier);
            DegradationReport hier_partial;
            Expected<HierarchicalDesign, DesignError> hresult =
                hdesigner.designSynthesizedRobust(chip, 0.6,
                                                  &hier_partial);
            if (!hresult.hasValue()) {
                const DesignError &err = hresult.error();
                const std::string what = err.toString();
                log::error("hierarchical design failed",
                           {{"error", what}});
                std::fprintf(stderr, "design error: %s\n",
                             what.c_str());
                for (const std::string &note : hier_partial.notes)
                    std::fprintf(stderr, "  partial: %s\n",
                                 note.c_str());
                if (err.isCancellation()) {
                    flight::dump("cancelled");
                    return 3;
                }
                return 1;
            }
            const HierarchicalDesign &hdesign = hresult.value();
            std::fputs(hierarchicalReport(chip, hdesign, config).c_str(),
                       stdout);
            bool clean = true;
            if (route) {
                const HierarchicalRouting routing =
                    routeHierarchical(chip, hdesign);
                std::size_t tile_violations = 0;
                for (const DrcReport &drc : routing.tileDrc)
                    tile_violations += drc.violations.size();
                std::printf(
                    "\n-- hierarchical routing --\n"
                    "nets routed            %zu\n"
                    "failed connections     %zu\n"
                    "total wire length      %.1f mm\n"
                    "corridor nets failed   %zu\n"
                    "max corridor width     %.2f mm\n"
                    "tile DRC violations    %zu\n"
                    "corridor DRC           %s\n"
                    "DRC %s\n",
                    routing.totalNets, routing.failedConnections,
                    routing.totalLengthMm, routing.corridor.failedNets,
                    routing.corridor.maxCorridorWidthMm,
                    tile_violations,
                    routing.corridorDrc.clean ? "clean" : "dirty",
                    routing.clean() ? "clean" : "DIRTY");
                clean = routing.clean();
            }
            if (profile)
                std::fputs(metrics::phaseTable().c_str(), stdout);
            if (!trace_path.empty()) {
                trace::Tracer::global().disable();
                if (!trace::Tracer::global().writeJson(trace_path)) {
                    std::fprintf(stderr, "error: cannot write %s\n",
                                 trace_path.c_str());
                    return 1;
                }
                std::printf("\ntrace written to %s\n",
                            trace_path.c_str());
            }
            return clean ? 0 : 1;
        }

        Prng prng(seed);
        const ChipCharacterization data = characterizeChip(chip, prng);
        const YoutiaoDesigner designer(config);
        // The robust entry point walks the degradation ladder when fault
        // injection (or a genuinely infeasible input) bites; on a clean
        // run its output is bit-identical to designer.design().
        Expected<YoutiaoDesign, DesignError> result =
            designer.designRobust(chip, data);
        if (!result.hasValue()) {
            const std::string what = result.error().toString();
            log::error("design failed", {{"error", what}});
            std::fprintf(stderr, "design error: %s\n", what.c_str());
            if (result.error().isCancellation()) {
                flight::dump("cancelled");
                return 3;
            }
            return 1;
        }
        const YoutiaoDesign &design = result.value();
        if (runledger::ledgerConfigured()) {
            for (const std::string &note : design.degradation.notes)
                recorder.addNote("degradation: " + note);
        }

        std::fputs(wiringReport(chip, design, config).c_str(), stdout);
        if (!save_path.empty()) {
            std::ostringstream out;
            saveDesign(out, design);
            io::atomicWriteFile(save_path, out.str());
            std::printf("\ndesign saved to %s\n", save_path.c_str());
        }
        if (compare) {
            const BaselineDesign google = designGoogleWiring(chip, config);
            std::printf("\n%s\n",
                        costComparison(design, google, "dedicated")
                            .c_str());
        }
        if (route) {
            const auto nets = buildWiringNets(
                chip, design.xyPlan, design.zPlan, design.readoutPlan);
            const RoutedWiring routed = routeChipWithFallback(chip, nets);
            std::printf("\n-- chip routing --\n"
                        "nets routed            %zu\n"
                        "failed connections     %zu\n"
                        "total wire length      %.1f mm\n"
                        "routing area           %.2f mm^2\n"
                        "airbridge crossovers   %zu\n",
                        routed.result.netCount,
                        routed.result.failedConnections,
                        routed.result.totalLengthMm,
                        routed.result.routingAreaMm2,
                        routed.result.crossovers.size());
            // Extra lines only when the ladder engaged, so clean runs
            // keep the historical routing summary byte for byte.
            if (routed.dedicatedNetFallbacks > 0)
                std::printf("dedicated fallbacks    %zu lines (from %zu "
                            "nets)\n",
                            routed.dedicatedNetFallbacks,
                            routed.fallbackNets.size());
        }
        if (hop || !hop_save_path.empty()) {
            const HopPlan hop_plan =
                buildHopPlan(design.xyPlan, design.frequencyPlan,
                             FhssConfig{seed, 4});
            if (hop)
                std::printf("\n%s", hopPlanReport(hop_plan).c_str());
            if (!hop_save_path.empty()) {
                io::atomicWriteFile(hop_save_path,
                                    hopPlanToJson(hop_plan));
                std::printf("\nhop schedule saved to %s\n",
                            hop_save_path.c_str());
            }
        }
        if (!drift_path.empty()) {
            // Seeded days-long drift replay: same trace and the same
            // per-epoch evaluation circuits under all three policies,
            // so the printed table is a like-for-like comparison.
            DriftConfig drift_config;
            drift_config.epochs = drift_epochs;
            drift_config.seed = taskSeed(seed, 0xD21F7);
            const DriftTrace trace_data =
                simulateDrift(chip.qubitCount(), drift_config);
            std::vector<DriftAdaptationResult> results;
            for (DriftPolicy policy :
                 {DriftPolicy::Static, DriftPolicy::Hopping,
                  DriftPolicy::Reallocate}) {
                DriftAdaptationConfig adapt;
                adapt.policy = policy;
                adapt.hop.seed = seed;
                const DriftAdapter adapter(config, adapt);
                results.push_back(
                    adapter.run(chip, design, data, trace_data));
            }
            std::printf("\n%s",
                        driftAdaptationReport(results).c_str());
            io::atomicWriteFile(drift_path,
                                driftResultsToJson(trace_data, results));
            std::printf("\ndrift replay saved to %s\n",
                        drift_path.c_str());
        }
        if (profile)
            std::fputs(metrics::phaseTable().c_str(), stdout);
        if (!trace_path.empty()) {
            trace::Tracer::global().disable();
            if (!trace::Tracer::global().writeJson(trace_path)) {
                std::fprintf(stderr, "error: cannot write %s\n",
                             trace_path.c_str());
                return 1;
            }
            std::printf("\ntrace written to %s\n", trace_path.c_str());
        }
    } catch (const cancel::Cancelled &e) {
        // A Cancelled that escaped a non-robust path (routing, drift
        // replay, hop schedule): same structured exit as the design
        // ladder's DeadlineExceeded.
        flight::dump("cancelled");
        log::error("run cancelled", {{"where", e.where()}});
        std::fprintf(stderr, "error: %s\n", e.what());
        return 3;
    } catch (const std::exception &e) {
        log::error("run failed", {{"what", e.what()}});
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return 0;
}

int
main(int argc, char **argv)
{
    flight::install("youtiao_cli");
    runledger::Recorder recorder("youtiao_cli", argc, argv);
    const int status = runCli(argc, argv, recorder);
    recorder.setExitStatus(status);
    recorder.finish();
    return status;
}
