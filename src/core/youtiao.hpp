/**
 * @file
 * YoutiaoDesigner: the end-to-end multiplexing-aware wiring pipeline.
 *
 * Given a chip and its crosstalk characterization, the designer
 *  1. fits XY and ZZ crosstalk models (Section 4.1),
 *  2. partitions the chip into multiplexing regions (Section 4.4),
 *  3. groups qubits onto FDM XY lines and allocates frequencies
 *     (Section 4.2),
 *  4. groups qubits and couplers onto TDM Z lines behind 1:2 / 1:4
 *     cryo-DEMUXes (Section 4.3),
 *  5. multiplexes readout feedlines, and
 *  6. tallies the physical resources and dollar cost.
 */

#ifndef YOUTIAO_CORE_YOUTIAO_HPP
#define YOUTIAO_CORE_YOUTIAO_HPP

#include "chip/topology.hpp"
#include "common/expected.hpp"
#include "common/prng.hpp"
#include "core/config.hpp"
#include "multiplex/readout.hpp"
#include "noise/crosstalk_data.hpp"
#include "sim/fidelity_estimator.hpp"

namespace youtiao {

/**
 * What the degradation ladder had to give up to finish a design. Empty
 * on a clean run; surfaced by youtiao_cli and the report writer, and
 * reproducible bit for bit from a fault spec + seed.
 */
struct DegradationReport
{
    /** Ideal-chip qubit indices excluded as dead (set by callers that
     *  applied ChipDefects before designing, e.g. the fault campaign). */
    std::vector<std::size_t> excludedQubits;
    /** Ideal-chip coupler indices excluded as broken. */
    std::vector<std::size_t> excludedCouplers;
    /** Grouping+allocation attempts consumed (1 = first try worked). */
    std::size_t allocationAttempts = 1;
    /** FDM line capacity the successful attempt used (0 = configured). */
    std::size_t fdmCapacityUsed = 0;
    /** Devices moved to dedicated Z lines over broken DEMUX channels. */
    std::size_t demuxFallbackDevices = 0;
    /** Nets re-routed as dedicated lines after rip-up retries failed. */
    std::size_t dedicatedNetFallbacks = 0;
    /** Cost of the degraded design minus the undegraded estimate (USD);
     *  0 when nothing degraded. */
    double costDeltaUsd = 0.0;
    /** Human-readable ladder steps, in the order they happened. */
    std::vector<std::string> notes;

    bool empty() const;

    /** Text block appended to wiring reports ("-- degradation --"). */
    std::string summary() const;
};

/** Everything the pipeline produces for one chip. */
struct YoutiaoDesign
{
    /** Fitted crosstalk models. */
    CrosstalkModel xyModel;
    CrosstalkModel zzModel;
    /** Model predictions over all qubit pairs. */
    SymmetricMatrix predictedXy;
    SymmetricMatrix predictedZzMHz;
    /** Regions used for grouping (single region for small chips). */
    ChipPartition partition;
    /** XY multiplexing. */
    FdmPlan xyPlan;
    FrequencyPlan frequencyPlan;
    /** Z multiplexing. */
    TdmPlan zPlan;
    /** Readout feedlines (capacity = readoutFeedCapacity). */
    FdmPlan readoutPlan;
    /** Resonator tones of the readout feedlines. */
    ReadoutPlan readout;
    /** Resource tally + cost. */
    WiringCounts counts;
    double costUsd = 0.0;
    /** What the degradation ladder gave up, whichever entry point ran
     *  it (empty on clean runs). */
    DegradationReport degradation;
};

/**
 * The pipeline. Each stage exists once, in the graceful-degradation
 * ladder behind the *Robust entry points; the three throwing entry
 * points are thin wrappers over their structured twins. A clean run is
 * byte-identical through either API. Through the throwing API:
 *  - a stage failure the ladder rescues returns the degraded design
 *    with its DegradationReport instead of throwing;
 *  - armed fault sites (common/fault.hpp) fire as on the robust path;
 *  - a failure no rung rescues throws ConfigError (the DesignError's
 *    toString()), and a cooperative abort throws cancel::Cancelled with
 *    the original reason and poll site (throwDesignError()).
 */
class YoutiaoDesigner
{
  public:
    explicit YoutiaoDesigner(YoutiaoConfig config = {});

    const YoutiaoConfig &config() const { return config_; }

    /**
     * Full pipeline: fit models from @p data, then design the wiring for
     * @p chip.
     */
    YoutiaoDesign design(const ChipTopology &chip,
                         const ChipCharacterization &data) const;

    /**
     * Design with pre-fitted models (the Figure 12 transfer experiment:
     * fit on one chip, wire another).
     */
    YoutiaoDesign designWithModels(const ChipTopology &chip,
                                   const CrosstalkModel &xy_model,
                                   const CrosstalkModel &zz_model) const;

    /**
     * Fit-free design: run the grouping/allocation/partition pipeline
     * directly on measured crosstalk matrices with fixed equivalent-
     * distance weights (no random-forest stage). Used when calibration
     * matrices are trusted as-is -- and by the count/cost benches, where
     * the fit is irrelevant.
     */
    YoutiaoDesign designFromMeasurements(const ChipTopology &chip,
                                         const ChipCharacterization &data,
                                         double w_phy = 0.6) const;

    /**
     * Structured variants, and the one implementation of the pipeline:
     * an infeasible stage walks the degradation ladder (partition falls
     * back to a single region, an infeasible allocation retries with
     * shrunken group sizes and seeded perturbation, four attempts in
     * all, broken DEMUX channels strand their device onto a dedicated
     * line) and records every concession in the design's
     * DegradationReport. A chip no ladder step can rescue, or a
     * cooperative abort, yields a structured DesignError -- these
     * functions do not throw on bad inputs.
     */
    Expected<YoutiaoDesign, DesignError>
    designRobust(const ChipTopology &chip,
                 const ChipCharacterization &data) const;

    Expected<YoutiaoDesign, DesignError>
    designWithModelsRobust(const ChipTopology &chip,
                           const CrosstalkModel &xy_model,
                           const CrosstalkModel &zz_model) const;

    Expected<YoutiaoDesign, DesignError>
    designFromMeasurementsRobust(const ChipTopology &chip,
                                 const ChipCharacterization &data,
                                 double w_phy = 0.6) const;

    /**
     * Build the fidelity-estimation context for a finished design
     * (uses the design's frequency allocation, FDM lines and the
     * characterization's true crosstalk when provided, else predictions).
     */
    FidelityContext makeFidelityContext(const ChipTopology &chip,
                                        const YoutiaoDesign &design) const;

  private:
    Expected<YoutiaoDesign, DesignError>
    finishDesignRobust(const ChipTopology &chip,
                       SymmetricMatrix predicted_xy,
                       SymmetricMatrix predicted_zz, double w_phy,
                       YoutiaoDesign out) const;

    YoutiaoConfig config_;
};

} // namespace youtiao

#endif // YOUTIAO_CORE_YOUTIAO_HPP
