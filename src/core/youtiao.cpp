#include "core/youtiao.hpp"

#include <algorithm>
#include <sstream>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "noise/equivalent_distance.hpp"

namespace youtiao {

namespace {

/** Chips at or below this qubit count skip partitioning. */
constexpr std::size_t kPartitionThresholdQubits = 24;
/**
 * Grouping + frequency-allocation attempts before the ladder gives up.
 * Each retry shrinks the FDM line capacity by one (fewer, wider
 * frequency zones) and perturbs the grouping with seeded jitter, so a
 * masked band or injected infeasibility costs lines instead of the
 * whole design.
 */
constexpr std::size_t kMaxAllocationAttempts = 4;
/** Relative equivalent-distance jitter applied on retries. */
constexpr double kRetryJitter = 0.05;

} // namespace

bool
DegradationReport::empty() const
{
    return excludedQubits.empty() && excludedCouplers.empty() &&
           allocationAttempts <= 1 && fdmCapacityUsed == 0 &&
           demuxFallbackDevices == 0 && dedicatedNetFallbacks == 0 &&
           notes.empty();
}

std::string
DegradationReport::summary() const
{
    std::ostringstream out;
    out << "-- degradation --\n";
    auto list = [&out](const char *label,
                       const std::vector<std::size_t> &ids) {
        out << label << ids.size();
        if (!ids.empty()) {
            out << " (";
            for (std::size_t i = 0; i < ids.size(); ++i)
                out << (i > 0 ? " " : "") << ids[i];
            out << ")";
        }
        out << '\n';
    };
    list("excluded qubits        ", excludedQubits);
    list("excluded couplers      ", excludedCouplers);
    out << "allocation attempts    " << allocationAttempts << '\n';
    if (fdmCapacityUsed > 0)
        out << "fdm capacity used      " << fdmCapacityUsed << '\n';
    out << "demux fallback devices " << demuxFallbackDevices << '\n'
        << "dedicated net fallbacks " << dedicatedNetFallbacks << '\n';
    {
        std::ostringstream cost;
        cost.precision(2);
        cost << std::fixed << costDeltaUsd;
        out << "cost delta             " << (costDeltaUsd >= 0.0 ? "+" : "")
            << cost.str() << " USD\n";
    }
    for (const std::string &note : notes)
        out << "  - " << note << '\n';
    return out.str();
}

YoutiaoDesigner::YoutiaoDesigner(YoutiaoConfig config)
    : config_(std::move(config))
{}

YoutiaoDesign
YoutiaoDesigner::design(const ChipTopology &chip,
                        const ChipCharacterization &data) const
{
    return valueOrThrow(designRobust(chip, data));
}

YoutiaoDesign
YoutiaoDesigner::designWithModels(const ChipTopology &chip,
                                  const CrosstalkModel &xy_model,
                                  const CrosstalkModel &zz_model) const
{
    return valueOrThrow(designWithModelsRobust(chip, xy_model, zz_model));
}

YoutiaoDesign
YoutiaoDesigner::designFromMeasurements(const ChipTopology &chip,
                                        const ChipCharacterization &data,
                                        double w_phy) const
{
    return valueOrThrow(designFromMeasurementsRobust(chip, data, w_phy));
}

Expected<YoutiaoDesign, DesignError>
YoutiaoDesigner::designRobust(const ChipTopology &chip,
                              const ChipCharacterization &data) const
{
    CrosstalkModel xy, zz;
    try {
        const metrics::ScopedTimer timer("design.characterization_fit");
        xy = CrosstalkModel::fit(data.xySamples, config_.fit);
        zz = CrosstalkModel::fit(data.zzSamples, config_.fit);
    } catch (const cancel::Cancelled &e) {
        return cancelledError(e);
    } catch (const std::exception &e) {
        return DesignError(DesignStage::ModelFit, e.what());
    }
    return designWithModelsRobust(chip, xy, zz);
}

Expected<YoutiaoDesign, DesignError>
YoutiaoDesigner::designWithModelsRobust(const ChipTopology &chip,
                                        const CrosstalkModel &xy_model,
                                        const CrosstalkModel &zz_model)
    const
{
    YoutiaoDesign out;
    out.xyModel = xy_model;
    out.zzModel = zz_model;
    SymmetricMatrix predicted_xy, predicted_zz;
    try {
        const metrics::ScopedTimer timer("design.crosstalk_predict");
        predicted_xy = xy_model.predictQubitMatrix(chip);
        predicted_zz = zz_model.predictQubitMatrix(chip);
    } catch (const cancel::Cancelled &e) {
        return cancelledError(e);
    } catch (const std::exception &e) {
        return DesignError(DesignStage::ModelFit,
                           std::string("prediction failed: ") + e.what());
    }
    try {
        return finishDesignRobust(chip, std::move(predicted_xy),
                                  std::move(predicted_zz),
                                  xy_model.wPhy(), std::move(out));
    } catch (const cancel::Cancelled &e) {
        return cancelledError(e);
    }
}

Expected<YoutiaoDesign, DesignError>
YoutiaoDesigner::designFromMeasurementsRobust(
    const ChipTopology &chip, const ChipCharacterization &data,
    double w_phy) const
{
    if (data.xyCrosstalk.size() != chip.qubitCount() ||
        data.zzCrosstalkMHz.size() != chip.qubitCount()) {
        return DesignError(DesignStage::Validation,
                           "characterization does not match the chip")
            .with("qubits", chip.qubitCount())
            .with("xy_rows", data.xyCrosstalk.size())
            .with("zz_rows", data.zzCrosstalkMHz.size());
    }
    try {
        return finishDesignRobust(chip, data.xyCrosstalk,
                                  data.zzCrosstalkMHz, w_phy,
                                  YoutiaoDesign{});
    } catch (const cancel::Cancelled &e) {
        return cancelledError(e);
    }
}

Expected<YoutiaoDesign, DesignError>
YoutiaoDesigner::finishDesignRobust(const ChipTopology &chip,
                                    SymmetricMatrix predicted_xy,
                                    SymmetricMatrix predicted_zz,
                                    double w_phy, YoutiaoDesign out) const
{
    // Every entry point, throwing or structured, ends here. On a clean
    // run no ladder step engages and the stage sequence -- calls and
    // PRNG consumption alike -- is the plain pipeline's (the designs are
    // pinned by golden digests in tests/test_degradation.cpp).
    if (chip.qubitCount() == 0)
        return DesignError(DesignStage::Validation,
                           "cannot design an empty chip");
    cancel::poll("design.start");
    out.predictedXy = std::move(predicted_xy);
    out.predictedZzMHz = std::move(predicted_zz);
    DegradationReport &degraded = out.degradation;

    SymmetricMatrix d_equiv;
    try {
        const metrics::ScopedTimer timer("design.distance_matrices");
        const SymmetricMatrix d_phy = qubitPhysicalDistanceMatrix(chip);
        const SymmetricMatrix d_top = qubitTopologicalDistanceMatrix(chip);
        d_equiv =
            equivalentDistanceMatrix(d_phy, d_top, w_phy, 1.0 - w_phy);
    } catch (const cancel::Cancelled &) {
        throw;
    } catch (const std::exception &e) {
        return DesignError(DesignStage::Validation, e.what());
    }

    cancel::poll("design.partition");
    Prng prng(config_.seed);
    {
        const metrics::ScopedTimer timer("design.partition");
        bool single_region = chip.qubitCount() <= kPartitionThresholdQubits;
        if (!single_region) {
            if (fault::site("design.partition")) {
                degraded.notes.push_back(
                    "partition stage failed (injected); using a single "
                    "region");
                single_region = true;
            } else {
                try {
                    out.partition = generativePartition(
                        chip, d_equiv, config_.partition, prng);
                } catch (const cancel::Cancelled &) {
                    throw;
                } catch (const std::exception &e) {
                    degraded.notes.push_back(
                        std::string("partition failed (") + e.what() +
                        "); using a single region");
                    single_region = true;
                }
            }
        }
        if (single_region) {
            out.partition = ChipPartition{};
            out.partition.regions.push_back({});
            out.partition.regionOfQubit.assign(chip.qubitCount(), 0);
            for (std::size_t q = 0; q < chip.qubitCount(); ++q)
                out.partition.regions[0].push_back(q);
            out.partition.seeds.push_back(0);
        }
    }

    // Grouping + allocation ladder: every attempt re-groups the XY
    // lines and re-allocates the spectrum. Retries shrink the line
    // capacity by one (fewer, wider frequency zones -- the knob that
    // rescues masked bands and crowding) and jitter the distance matrix
    // with a seeded perturbation so the greedy grouping explores a
    // different tiling.
    const std::size_t configured_capacity =
        std::max<std::size_t>(1, config_.fdm.lineCapacity);
    std::size_t capacity = configured_capacity;
    Prng retry_prng(taskSeed(config_.seed, 0x0DE6'7ADEull));
    FdmPlan ideal_xy;
    bool have_ideal_xy = false;
    std::string last_failure;
    bool allocated = false;
    for (std::size_t attempt = 0;
         attempt < kMaxAllocationAttempts && !allocated; ++attempt) {
        cancel::poll("design.allocate");
        FdmGroupingConfig fdm_cfg = config_.fdm;
        fdm_cfg.lineCapacity = capacity;
        try {
            {
                const metrics::ScopedTimer timer("design.xy_grouping");
                if (fault::site("design.fdm_group"))
                    throw ConfigError(
                        "injected fault: XY grouping failed");
                if (attempt == 0) {
                    out.xyPlan = groupFdmPartitioned(out.partition,
                                                     d_equiv, fdm_cfg);
                } else {
                    SymmetricMatrix jittered = d_equiv;
                    for (std::size_t i = 0; i < jittered.size(); ++i)
                        for (std::size_t j = i + 1; j < jittered.size();
                             ++j)
                            jittered(i, j) *=
                                1.0 + kRetryJitter * retry_prng.uniform();
                    out.xyPlan = groupFdmPartitioned(out.partition,
                                                     jittered, fdm_cfg);
                }
            }
            {
                const metrics::ScopedTimer timer(
                    "design.frequency_allocation");
                if (fault::site("freq.allocate"))
                    throw ConfigError("injected fault: frequency "
                                      "allocation infeasible");
                const NoiseModel noise(config_.noise);
                out.frequencyPlan = allocateFrequencies(
                    out.xyPlan, out.predictedXy, noise,
                    config_.frequency);
            }
            allocated = true;
            if (!have_ideal_xy) {
                ideal_xy = out.xyPlan;
                have_ideal_xy = true;
            }
            if (attempt > 0) {
                degraded.allocationAttempts = attempt + 1;
                degraded.fdmCapacityUsed = capacity;
                degraded.notes.push_back(
                    "allocation succeeded on attempt " +
                    std::to_string(attempt + 1) + " with line capacity " +
                    std::to_string(capacity) + " (configured " +
                    std::to_string(configured_capacity) + ")");
            }
        } catch (const cancel::Cancelled &) {
            throw;
        } catch (const std::exception &e) {
            last_failure = e.what();
            metrics::count("design.allocation_retries");
            trace::instant("design.allocation_retry", "design");
            degraded.notes.push_back(
                "allocation attempt " + std::to_string(attempt + 1) +
                " at capacity " + std::to_string(capacity) +
                " failed: " + last_failure);
            // The first attempt's grouping is the undegraded resource
            // estimate even when its allocation failed.
            if (attempt == 0 && !out.xyPlan.lines.empty() &&
                !have_ideal_xy) {
                ideal_xy = out.xyPlan;
                have_ideal_xy = true;
            }
            if (capacity > 1)
                --capacity;
        }
    }
    if (!allocated) {
        return DesignError(DesignStage::FrequencyAllocation,
                           "allocation budget exhausted: " + last_failure)
            .with("attempts", kMaxAllocationAttempts)
            .with("final_capacity", capacity);
    }

    cancel::poll("design.tdm");
    {
        const metrics::ScopedTimer timer("design.tdm_grouping");
        bool dedicated_fallback = false;
        if (fault::site("design.tdm_group")) {
            degraded.notes.push_back(
                "TDM grouping failed (injected); dedicated Z lines");
            dedicated_fallback = true;
        } else {
            try {
                out.zPlan = groupTdmPartitioned(chip, out.partition,
                                                out.predictedZzMHz,
                                                config_.tdm);
            } catch (const cancel::Cancelled &) {
                throw;
            } catch (const std::exception &e) {
                degraded.notes.push_back(
                    std::string("TDM grouping failed (") + e.what() +
                    "); dedicated Z lines");
                dedicated_fallback = true;
            }
        }
        if (dedicated_fallback)
            out.zPlan = dedicatedZPlan(chip);
    }
    FdmPlan ideal_xy_for_counts = have_ideal_xy ? ideal_xy : out.xyPlan;
    const TdmPlan ideal_z = out.zPlan;

    // Broken DEMUX output channels strand their device: move it to a
    // dedicated Z line. Moving a device out of a group can never break
    // gate realizability (no new group sharing is created).
    if (fault::enabled()) {
        const std::size_t original_groups = out.zPlan.groups.size();
        for (std::size_t g = 0; g < original_groups; ++g) {
            if (out.zPlan.groups[g].fanout <= 1)
                continue;
            std::vector<std::size_t> kept, moved;
            for (std::size_t d : out.zPlan.groups[g].devices) {
                if (fault::site("tdm.demux_channel"))
                    moved.push_back(d);
                else
                    kept.push_back(d);
            }
            if (moved.empty())
                continue;
            if (kept.empty()) {
                // The whole DEMUX died: its group becomes the first
                // device's dedicated line instead of going empty.
                out.zPlan.groups[g].devices = {moved.front()};
                out.zPlan.groups[g].fanout = 1;
                moved.erase(moved.begin());
            } else {
                out.zPlan.groups[g].devices = std::move(kept);
            }
            degraded.demuxFallbackDevices += moved.size() +
                (out.zPlan.groups[g].fanout == 1 ? 1 : 0);
            for (std::size_t d : moved) {
                out.zPlan.groupOfDevice[d] = out.zPlan.groups.size();
                out.zPlan.groups.push_back(TdmGroup{{d}, 1});
            }
            degraded.notes.push_back(
                "demux group " + std::to_string(g) + " lost " +
                std::to_string(moved.size() +
                               (out.zPlan.groups[g].fanout == 1 ? 1 : 0)) +
                " channel(s); device(s) moved to dedicated Z lines");
        }
    }

    cancel::poll("design.readout");
    {
        const metrics::ScopedTimer timer("design.readout_planning");
        bool dedicated_readout = false;
        if (fault::site("design.readout")) {
            degraded.notes.push_back(
                "readout planning failed (injected); dedicated "
                "feedlines");
            dedicated_readout = true;
        } else {
            try {
                out.readoutPlan = groupFdm(
                    d_equiv,
                    FdmGroupingConfig{config_.cost.readoutFeedCapacity});
            } catch (const cancel::Cancelled &) {
                throw;
            } catch (const std::exception &e) {
                degraded.notes.push_back(
                    std::string("readout planning failed (") + e.what() +
                    "); dedicated feedlines");
                dedicated_readout = true;
            }
        }
        if (dedicated_readout)
            out.readoutPlan = groupFdm(d_equiv, FdmGroupingConfig{1});
        out.readout = planReadout(out.readoutPlan);
    }

    out.counts = multiplexedWiringCounts(chip.qubitCount(), out.xyPlan,
                                         out.zPlan, config_.cost);
    out.costUsd = wiringCostUsd(out.counts);
    if (!degraded.empty()) {
        const WiringCounts ideal_counts = multiplexedWiringCounts(
            chip.qubitCount(), ideal_xy_for_counts, ideal_z,
            config_.cost);
        degraded.costDeltaUsd =
            out.costUsd - wiringCostUsd(ideal_counts);
        metrics::count("design.degraded_designs");
        log::warn("design degraded",
                  {{"notes", degraded.notes.size()},
                   {"attempts", degraded.allocationAttempts},
                   {"demux_fallbacks", degraded.demuxFallbackDevices},
                   {"cost_delta_usd", degraded.costDeltaUsd}});
    }
    metrics::count("design.chips_designed");
    metrics::count("design.qubits_designed", chip.qubitCount());
    log::info("chip designed",
              {{"qubits", chip.qubitCount()},
               {"regions", out.partition.regions.size()},
               {"xy_lines", out.xyPlan.lines.size()},
               {"z_groups", out.zPlan.groups.size()},
               {"cost_usd", out.costUsd}});
    return out;
}

FidelityContext
YoutiaoDesigner::makeFidelityContext(const ChipTopology &chip,
                                     const YoutiaoDesign &design) const
{
    FidelityContext ctx;
    ctx.noise = NoiseModel(config_.noise);
    ctx.xyCoupling = design.predictedXy;
    ctx.zzMHz = design.predictedZzMHz;
    ctx.frequencyGHz = design.frequencyPlan.frequencyGHz;
    ctx.fdmLineOfQubit = design.xyPlan.lineOfQubit;
    ctx.t1Ns.reserve(chip.qubitCount());
    for (std::size_t q = 0; q < chip.qubitCount(); ++q)
        ctx.t1Ns.push_back(chip.qubit(q).t1Ns);
    return ctx;
}

} // namespace youtiao
