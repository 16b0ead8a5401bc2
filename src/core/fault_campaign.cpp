#include "core/fault_campaign.hpp"

#include <exception>
#include <map>
#include <sstream>
#include <utility>

#include "chip/defects.hpp"
#include "common/cancel.hpp"
#include "common/checkpoint.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/prng.hpp"
#include "core/checkpoint_codec.hpp"
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
            routing_cfg.blockedHalfWidthMm = defects.blockedHalfWidthMm;
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

/**
 * Per-cell checkpoint payload: the finished run plus a snapshot of the
 * fault-site counters taken right after it. A site's firing sequence is
 * a pure function of (site, rate, seed, hit index), so fast-forwarding
 * the counters (fault::restoreCounters) before the first live cell
 * makes the resumed tail fire exactly as the uninterrupted run would.
 */
std::vector<std::uint8_t>
packCell(const FaultCampaignRun &run,
         const std::map<std::string, fault::SiteStats> &counters)
{
    checkpoint::ByteWriter w;
    w.f64(run.defectRate);
    w.u64(run.seed);
    w.u64(run.deadQubits);
    w.u64(run.brokenCouplers);
    w.u64(run.maskedBands);
    w.boolean(run.ok);
    w.boolean(run.degraded);
    w.boolean(run.routed);
    w.boolean(run.drcClean);
    w.u64(run.drcViolations);
    w.u64(run.failedConnections);
    ckptcodec::putDegradation(w, run.degradation);
    w.f64(run.costUsd);
    w.str(run.error);
    w.u64(counters.size());
    for (const auto &[site, s] : counters) {
        w.str(site);
        w.f64(s.rate);
        w.u64(s.seed);
        w.u64(s.hits);
        w.u64(s.fires);
    }
    return w.bytes();
}

void
unpackCell(const std::vector<std::uint8_t> &bytes, FaultCampaignRun &run,
           std::map<std::string, fault::SiteStats> &counters)
{
    checkpoint::ByteReader r(bytes);
    run.defectRate = r.f64();
    run.seed = r.u64();
    run.deadQubits = r.u64();
    run.brokenCouplers = r.u64();
    run.maskedBands = r.u64();
    run.ok = r.boolean();
    run.degraded = r.boolean();
    run.routed = r.boolean();
    run.drcClean = r.boolean();
    run.drcViolations = r.u64();
    run.failedConnections = r.u64();
    run.degradation = ckptcodec::getDegradation(r);
    run.costUsd = r.f64();
    run.error = r.str();
    counters.clear();
    const std::size_t sites = r.u64();
    for (std::size_t i = 0; i < sites; ++i) {
        const std::string site = r.str();
        fault::SiteStats s;
        s.rate = r.f64();
        s.seed = r.u64();
        s.hits = r.u64();
        s.fires = r.u64();
        counters.emplace(site, s);
    }
    requireConfig(r.exhausted(),
                  "campaign cell snapshot has trailing bytes");
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

    // Cells run in deterministic (rate, seed) order; each finished cell
    // is a checkpoint barrier. On resume, cached cells replay from the
    // journal and the first live cell fast-forwards the fault-site
    // counters to where the cached stream left them.
    std::map<std::string, fault::SiteStats> cached_counters;
    bool counters_stale = false;
    try {
        std::size_t index = 0;
        for (double rate : config.defectRates) {
            for (std::size_t s = 0; s < config.seedsPerRate; ++s) {
                const std::uint64_t run_seed =
                    taskSeed(config.baseSeed, index);
                const std::string ckpt_key =
                    "cell-" + std::to_string(index);
                ++index;
                if (checkpoint::active()) {
                    std::vector<std::uint8_t> blob;
                    if (checkpoint::fetch(ckpt_key, blob)) {
                        FaultCampaignRun run;
                        unpackCell(blob, run, cached_counters);
                        summary.runs.push_back(std::move(run));
                        counters_stale = true;
                        continue;
                    }
                }
                cancel::poll("campaign.cell");
                if (counters_stale) {
                    if (inject)
                        fault::restoreCounters(cached_counters);
                    counters_stale = false;
                }
                summary.runs.push_back(
                    runOne(chip, config, rate, run_seed));
                if (checkpoint::active())
                    checkpoint::store(
                        ckpt_key,
                        packCell(summary.runs.back(),
                                 inject ? fault::stats()
                                        : std::map<std::string,
                                                   fault::SiteStats>{}));
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
