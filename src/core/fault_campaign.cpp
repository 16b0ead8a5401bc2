#include "core/fault_campaign.hpp"

#include <exception>
#include <sstream>
#include <utility>

#include "chip/defects.hpp"
#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/prng.hpp"
#include "noise/crosstalk_data.hpp"
#include "routing/chip_router.hpp"
#include "routing/drc.hpp"

namespace youtiao {

namespace {

FaultCampaignRun
runOne(const ChipTopology &chip, const FaultCampaignConfig &config,
       double rate, std::uint64_t run_seed)
{
    FaultCampaignRun run;
    run.defectRate = rate;
    run.seed = run_seed;
    const metrics::ScopedTimer timer("campaign.run");
    metrics::count("campaign.runs");
    try {
        const ChipDefects defects = [&] {
            const metrics::ScopedTimer defects_timer("campaign.defects");
            return randomDefects(chip, uniformDefectRates(rate),
                                 run_seed);
        }();
        run.deadQubits = defects.deadQubits.size();
        run.brokenCouplers = defects.brokenCouplers.size();
        run.maskedBands = defects.maskedBandsGHz.size();
        const DegradedChip degraded = applyDefects(chip, defects);

        YoutiaoConfig designer_cfg = config.designer;
        for (const FrequencyMask &m : defects.maskedBandsGHz)
            designer_cfg.frequency.maskedBandsGHz.emplace_back(m.loGHz,
                                                               m.hiGHz);
        const YoutiaoDesigner designer(designer_cfg);
        Prng prng(taskSeed(run_seed, 0xC4A21Aull));
        const ChipCharacterization data =
            characterizeChip(degraded.chip, prng);

        Expected<YoutiaoDesign, DesignError> result = [&] {
            const metrics::ScopedTimer design_timer("campaign.design");
            return designer.designFromMeasurementsRobust(degraded.chip,
                                                         data);
        }();
        if (!result.hasValue()) {
            metrics::count("campaign.design_failures");
            run.error = result.error().toString();
            return run;
        }
        YoutiaoDesign design = std::move(result.value());
        design.degradation.excludedQubits = defects.deadQubits;
        design.degradation.excludedCouplers = degraded.removedCouplers;

        if (config.route) {
            const metrics::ScopedTimer route_timer("campaign.route");
            ChipRoutingConfig routing_cfg;
            routing_cfg.blockedCells = defects.blockedRoutingCells;
            const std::vector<NetSpec> nets =
                buildWiringNets(degraded.chip, design.xyPlan,
                                design.zPlan, design.readoutPlan,
                                routing_cfg);
            const RoutedWiring routed =
                routeChipWithFallback(degraded.chip, nets, routing_cfg);
            run.routed = true;
            run.failedConnections = routed.result.failedConnections;
            design.degradation.dedicatedNetFallbacks =
                routed.dedicatedNetFallbacks;
            if (routed.dedicatedNetFallbacks > 0)
                design.degradation.notes.push_back(
                    std::to_string(routed.fallbackNets.size()) +
                    " net(s) fell back to " +
                    std::to_string(routed.dedicatedNetFallbacks) +
                    " dedicated line(s)");
            if (routed.result.failedConnections > 0) {
                run.degradation = design.degradation;
                run.error =
                    DesignError(DesignStage::Routing,
                                "routing incomplete even after dedicated-"
                                "line fallback")
                        .with("failed_connections",
                              routed.result.failedConnections)
                        .with("nets", routed.result.netCount)
                        .toString();
                return run;
            }
            if (routed.result.grid.has_value()) {
                const DrcReport drc = checkRoutingDrc(
                    *routed.result.grid, routed.result.netCount,
                    routed.result.crossovers);
                run.drcClean = drc.clean;
                run.drcViolations = drc.violations.size();
            }
        }

        run.ok = true;
        run.degradation = std::move(design.degradation);
        run.degraded = !run.degradation.empty();
        run.costUsd = design.costUsd;
    } catch (const std::exception &e) {
        // The robust pipeline is not supposed to throw; anything caught
        // here is still reported structurally rather than crashing the
        // campaign.
        run.ok = false;
        run.error = std::string("unexpected exception: ") + e.what();
    }
    return run;
}

void
appendJsonDouble(std::ostringstream &out, double v)
{
    // json::parse has no lexer for inf/nan; clamp to null.
    if (v != v || v > 1e308 || v < -1e308) {
        out << "null";
        return;
    }
    std::ostringstream tmp;
    tmp.precision(17);
    tmp << v;
    out << tmp.str();
}

} // namespace

bool
FaultCampaignSummary::allRunsAccounted() const
{
    for (const FaultCampaignRun &run : runs) {
        if (run.ok) {
            if (run.routed && !run.drcClean)
                return false;
        } else if (run.error.empty()) {
            return false;
        }
    }
    return true;
}

std::string
FaultCampaignSummary::toJson() const
{
    std::ostringstream out;
    out << "{\n"
        << "  \"schema\": \"youtiao-fault-campaign-1\",\n"
        << "  \"chip\": \"" << json::escape(chipName) << "\",\n"
        << "  \"qubits\": " << chipQubits << ",\n"
        << "  \"base_seed\": " << config.baseSeed << ",\n"
        << "  \"seeds_per_rate\": " << config.seedsPerRate << ",\n"
        << "  \"fault_spec\": \"" << json::escape(config.faultSpec)
        << "\",\n"
        << "  \"route\": " << (config.route ? "true" : "false") << ",\n";
    out << "  \"rates\": [";
    for (std::size_t i = 0; i < config.defectRates.size(); ++i) {
        if (i > 0)
            out << ", ";
        appendJsonDouble(out, config.defectRates[i]);
    }
    out << "],\n  \"runs\": [\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const FaultCampaignRun &run = runs[i];
        out << "    {\"rate\": ";
        appendJsonDouble(out, run.defectRate);
        out << ", \"seed\": " << run.seed
            << ", \"dead_qubits\": " << run.deadQubits
            << ", \"broken_couplers\": " << run.brokenCouplers
            << ", \"masked_bands\": " << run.maskedBands
            << ", \"ok\": " << (run.ok ? "true" : "false")
            << ", \"degraded\": " << (run.degraded ? "true" : "false")
            << ", \"routed\": " << (run.routed ? "true" : "false")
            << ", \"drc_clean\": " << (run.drcClean ? "true" : "false")
            << ", \"drc_violations\": " << run.drcViolations
            << ", \"failed_connections\": " << run.failedConnections
            << ", \"allocation_attempts\": "
            << run.degradation.allocationAttempts
            << ", \"fdm_capacity_used\": "
            << run.degradation.fdmCapacityUsed
            << ", \"demux_fallback_devices\": "
            << run.degradation.demuxFallbackDevices
            << ", \"dedicated_net_fallbacks\": "
            << run.degradation.dedicatedNetFallbacks
            << ", \"cost_usd\": ";
        appendJsonDouble(out, run.costUsd);
        out << ", \"cost_delta_usd\": ";
        appendJsonDouble(out, run.degradation.costDeltaUsd);
        out << ", \"error\": \"" << json::escape(run.error) << "\"}";
        out << (i + 1 < runs.size() ? ",\n" : "\n");
    }
    out << "  ],\n"
        << "  \"summary\": {\"runs\": " << runs.size()
        << ", \"ok\": " << okCount << ", \"failed\": " << failedCount
        << ", \"degraded\": " << degradedCount
        << ", \"drc_violations\": " << drcViolationCount
        << ", \"all_accounted\": "
        << (allRunsAccounted() ? "true" : "false") << "}\n"
        << "}\n";
    return out.str();
}

FaultCampaignSummary
runFaultCampaign(const ChipTopology &chip,
                 const FaultCampaignConfig &config)
{
    requireConfig(!config.defectRates.empty(),
                  "fault campaign needs at least one defect rate");
    for (double rate : config.defectRates)
        requireConfig(rate >= 0.0 && rate <= 1.0,
                      "defect rates must lie in [0, 1]");
    requireConfig(config.seedsPerRate >= 1,
                  "fault campaign needs at least one seed per rate");

    FaultCampaignSummary summary;
    summary.chipName = chip.name();
    summary.chipQubits = chip.qubitCount();
    summary.config = config;

    const bool inject = !config.faultSpec.empty();
    if (inject) {
        fault::reset();
        fault::configure(config.faultSpec); // throws on bad grammar
        fault::enable();
    }
    log::info("fault campaign started",
              {{"rates", config.defectRates.size()},
               {"seeds_per_rate", config.seedsPerRate},
               {"inject", inject}});

    // Cells run in deterministic (rate, seed) order, so the fault-site
    // counters fire the same sequence on every run of the campaign.
    try {
        std::size_t index = 0;
        for (double rate : config.defectRates) {
            for (std::size_t s = 0; s < config.seedsPerRate; ++s) {
                cancel::poll("campaign.cell");
                summary.runs.push_back(runOne(
                    chip, config, rate, taskSeed(config.baseSeed, index)));
                ++index;
            }
        }
    } catch (...) {
        if (inject) {
            fault::disable();
            fault::reset();
        }
        throw;
    }
    if (inject) {
        fault::disable();
        fault::reset();
    }

    for (const FaultCampaignRun &run : summary.runs) {
        if (run.ok)
            ++summary.okCount;
        else
            ++summary.failedCount;
        if (run.degraded)
            ++summary.degradedCount;
        summary.drcViolationCount += run.drcViolations;
    }
    if (summary.failedCount > 0)
        metrics::count("campaign.failed_runs", summary.failedCount);
    if (summary.degradedCount > 0)
        metrics::count("campaign.degraded_runs", summary.degradedCount);
    log::info("fault campaign done",
              {{"runs", summary.runs.size()},
               {"ok", summary.okCount},
               {"failed", summary.failedCount},
               {"degraded", summary.degradedCount}});
    return summary;
}

} // namespace youtiao
