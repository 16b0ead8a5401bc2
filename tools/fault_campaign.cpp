/**
 * @file
 * fault_campaign -- sweep seeded chip defects (and optional fault
 * injection) over the robust design pipeline and emit a JSON record.
 *
 *   fault_campaign [--rates R1,R2,...] [--seeds N] [--base-seed S]
 *                  [--topology NAME] [--rows N] [--cols N] [--chip FILE]
 *                  [--inject-faults SPEC] [--no-route] [--out FILE]
 *                  [--deadline SECONDS]
 *                  [--profile] [--trace FILE] [--log-level LEVEL]
 *
 * Every (rate, seed) cell generates a random defect set, applies it to
 * the chip, designs the degraded chip with the graceful-degradation
 * pipeline, routes + DRC-checks the result, and records either a clean
 * design or a structured failure -- never a crash. The campaign record
 * ("youtiao-fault-campaign-1", docs/FAULT_INJECTION.md) goes to --out
 * (default fault_campaign.json); a human summary goes to stdout.
 *
 * Observability: --profile prints the metrics phase table, --trace
 * writes a Chrome trace of the campaign spans, the flight recorder is
 * armed (FLIGHT_fault_campaign.json on a crash or DesignError, see
 * common/flight.hpp), and when $YOUTIAO_RUN_LEDGER is set every
 * campaign appends its run record (benchmark "fault_campaign") so
 * sweeps are trend-analyzable with perf_trend.
 *
 * Robustness: --deadline SECONDS arms a cooperative deadline
 * (common/cancel.hpp) -- the sweep aborts between cells with a flight
 * dump and exit code 3. The sweep is a pure function of its chip, seeds
 * and fault spec, so rerunning an interrupted sweep is its recovery.
 * The campaign JSON is written atomically (temp + fsync + rename).
 *
 * Exit codes: 0 every run accounted for (design DRC-clean or structured
 * failure), 1 some run was not, 2 usage / bad argument, 3 cancelled /
 * deadline exceeded.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

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
#include "common/trace.hpp"
#include "core/fault_campaign.hpp"

namespace {

using namespace youtiao;

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--rates R1,R2,...] [--seeds N] [--base-seed S]\n"
        "          [--topology square|hexagon|heavy-square|heavy-hexagon|"
        "low-density|grid]\n"
        "          [--rows N] [--cols N] [--chip FILE]\n"
        "          [--inject-faults SPEC] [--no-route] [--out FILE]\n"
        "          [--deadline SECONDS]\n"
        "          [--profile] [--trace FILE]\n"
        "          [--log-level error|warn|info|debug]\n"
        "  --rates: comma-separated defect rates in [0,1] "
        "(default 0.01,0.05,0.10)\n"
        "  --seeds: seeds per rate (default 8)\n"
        "  --inject-faults: fault spec site[:rate[:seed]][,...] "
        "(also YOUTIAO_FAULTS)\n"
        "  --no-route: skip routing + DRC of surviving designs\n"
        "  --out: campaign JSON path (default fault_campaign.json)\n"
        "  --deadline: cancel the sweep after SECONDS (exit 3)\n"
        "  --profile: print the phase/counter profile after the sweep\n"
        "  --trace: write a Chrome trace of the campaign to FILE\n",
        argv0);
    std::exit(2);
}

std::vector<double>
parseRates(const char *text)
{
    std::vector<double> rates;
    std::string value;
    std::istringstream in(text);
    while (std::getline(in, value, ',')) {
        requireConfig(!value.empty(), "--rates has an empty entry");
        char *end = nullptr;
        const double rate = std::strtod(value.c_str(), &end);
        requireConfig(end != nullptr && *end == '\0' && rate >= 0.0 &&
                          rate <= 1.0,
                      "--rates entries must be numbers in [0, 1], got '" +
                          value + "'");
        rates.push_back(rate);
    }
    requireConfig(!rates.empty(), "--rates needs at least one rate");
    return rates;
}

} // namespace

int
runCampaign(int argc, char **argv, runledger::Recorder &recorder)
{
    FaultCampaignConfig campaign;
    std::string topology = "grid";
    std::size_t rows = 5, cols = 5;
    std::string chip_path;
    std::string out_path = "fault_campaign.json";
    std::string trace_path;
    bool profile = false;
    double deadline_s = 0.0;

    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto next = [&]() -> const char * {
                if (i + 1 >= argc)
                    usage(argv[0]);
                return argv[++i];
            };
            if (arg == "--rates")
                campaign.defectRates = parseRates(next());
            else if (arg == "--seeds")
                campaign.seedsPerRate = parseSizeArg(next(), "--seeds");
            else if (arg == "--base-seed")
                campaign.baseSeed = parseUint64Arg(next(), "--base-seed");
            else if (arg == "--topology")
                topology = next();
            else if (arg == "--rows")
                rows = parseSizeArg(next(), "--rows");
            else if (arg == "--cols")
                cols = parseSizeArg(next(), "--cols");
            else if (arg == "--chip")
                chip_path = next();
            else if (arg == "--inject-faults")
                campaign.faultSpec = next();
            else if (arg == "--no-route")
                campaign.route = false;
            else if (arg == "--out")
                out_path = next();
            else if (arg == "--profile")
                profile = true;
            else if (arg == "--trace")
                trace_path = next();
            else if (arg == "--deadline")
                deadline_s =
                    parsePositiveDoubleArg(next(), "--deadline");
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
        // The environment spec applies when no explicit flag was given,
        // mirroring how the CLI arms fault injection.
        if (campaign.faultSpec.empty()) {
            if (const char *env = std::getenv("YOUTIAO_FAULTS"))
                campaign.faultSpec = env;
        }
        if (!campaign.faultSpec.empty())
            fault::configure(campaign.faultSpec); // validate grammar now
    } catch (const ConfigError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }

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

    if (!trace_path.empty())
        trace::Tracer::global().enable();

    try {
        ChipTopology chip;
        if (chip_path.empty()) {
            chip = makeTopology(family, rows, cols);
        } else {
            std::ifstream in(chip_path);
            if (!in) {
                std::fprintf(stderr, "error: cannot read %s\n",
                             chip_path.c_str());
                return 2;
            }
            try {
                chip = loadChip(in);
            } catch (const ConfigError &e) {
                // A chip file that does not parse is a bad argument.
                std::fprintf(stderr, "error: %s\n", e.what());
                return 2;
            }
        }
        campaign.designer.seed = campaign.baseSeed;
        if (runledger::ledgerConfigured()) {
            std::ostringstream cfg;
            cfg << "rates=";
            for (double rate : campaign.defectRates)
                cfg << rate << ",";
            cfg << "seeds=" << campaign.seedsPerRate
                << ",route=" << campaign.route
                << ",faults=" << campaign.faultSpec;
            recorder.hashBytes("chip", chipToString(chip));
            recorder.setHash("seed",
                             std::to_string(campaign.baseSeed));
            recorder.hashBytes("config", cfg.str());
        }

        if (deadline_s > 0.0)
            cancel::armDeadline(deadline_s);

        const FaultCampaignSummary summary =
            runFaultCampaign(chip, campaign);

        recorder.addNote("runs=" + std::to_string(summary.runs.size()) +
                         " ok=" + std::to_string(summary.okCount) +
                         " failed=" + std::to_string(summary.failedCount) +
                         " degraded=" +
                         std::to_string(summary.degradedCount));

        io::atomicWriteFile(out_path, summary.toJson());

        std::printf("-- fault campaign --\n"
                    "chip                   %s (%zu qubits)\n"
                    "runs                   %zu (%zu rates x %zu seeds)\n"
                    "ok                     %zu\n"
                    "degraded               %zu\n"
                    "structured failures    %zu\n"
                    "drc violations         %zu\n"
                    "record                 %s\n",
                    summary.chipName.c_str(), summary.chipQubits,
                    summary.runs.size(), campaign.defectRates.size(),
                    campaign.seedsPerRate, summary.okCount,
                    summary.degradedCount, summary.failedCount,
                    summary.drcViolationCount, out_path.c_str());
        if (profile)
            std::fputs(metrics::phaseTable().c_str(), stdout);
        if (!trace_path.empty()) {
            trace::Tracer::global().disable();
            if (!trace::Tracer::global().writeJson(trace_path)) {
                std::fprintf(stderr, "error: cannot write trace %s\n",
                             trace_path.c_str());
                return 1;
            }
        }
        if (!summary.allRunsAccounted()) {
            std::fprintf(stderr,
                         "error: some runs ended neither in a DRC-clean "
                         "design nor a structured failure\n");
            return 1;
        }
    } catch (const cancel::Cancelled &e) {
        flight::dump("cancelled");
        log::error("campaign cancelled", {{"where", e.where()}});
        std::fprintf(stderr, "error: %s\n", e.what());
        return 3;
    } catch (const std::exception &e) {
        log::error("campaign failed", {{"what", e.what()}});
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return 0;
}

int
main(int argc, char **argv)
{
    flight::install("fault_campaign");
    runledger::Recorder recorder("fault_campaign", argc, argv);
    const int status = runCampaign(argc, argv, recorder);
    recorder.setExitStatus(status);
    recorder.finish();
    return status;
}
