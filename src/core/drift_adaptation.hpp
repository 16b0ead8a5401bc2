/**
 * @file
 * Online drift adaptation of a finished YOUTIAO design.
 *
 * Replays a simulated drift trace (noise/drift.hpp) against a design
 * under one of three wiring policies:
 *  - Static: the shipped allocation is never touched (the paper's
 *    implicit assumption);
 *  - Hopping: groups cycle their members through the group's own
 *    channel table on a seeded FHSS schedule (multiplex/fhss.hpp),
 *    averaging TLS exposure without any recalibration;
 *  - Reallocate: at each epoch, groups dirtied by a TLS arrival, a band
 *    mask, an exact-frequency collision or drifted crosstalk are
 *    re-optimized cell-by-cell with the incremental O(deg) cost
 *    (IncrementalAllocationCost), skipping masked and occupied cells so
 *    the repair is DRC-clean by construction; a zone left with no
 *    usable cell triggers the full designRobust retry ladder with the
 *    epoch's masks, and every concession lands in the accumulated
 *    DegradationReport.
 *
 * All three evaluate the same seeded random-layer circuit per epoch, so
 * fidelity series are directly comparable, and every path is a pure
 * function of (design, trace, config) - bit-identical across runs and
 * thread counts.
 */

#ifndef YOUTIAO_CORE_DRIFT_ADAPTATION_HPP
#define YOUTIAO_CORE_DRIFT_ADAPTATION_HPP

#include <cstddef>
#include <string>
#include <vector>

#include "core/youtiao.hpp"
#include "multiplex/fhss.hpp"
#include "noise/drift.hpp"

namespace youtiao {

/** How a design answers drift. */
enum class DriftPolicy
{
    Static,
    Hopping,
    Reallocate,
};

const char *driftPolicyName(DriftPolicy policy);

/** Adaptation knobs. */
struct DriftAdaptationConfig
{
    DriftPolicy policy = DriftPolicy::Static;
    /** Hop-schedule generation (Hopping only). */
    FhssConfig hop;
};

/** One epoch of the replay. */
struct DriftEpochResult
{
    std::size_t epoch = 0;
    /** Evaluation-circuit fidelity under this epoch's physics. */
    double fidelity = 0.0;
    /** Allocation objective of the frequencies in force. */
    double allocationCost = 0.0;
    /** Groups re-optimized this epoch (Reallocate only). */
    std::size_t dirtyGroups = 0;
    /** Qubits whose operating frequency changed this epoch. */
    std::size_t retunedQubits = 0;
    /** DRC violations: same-frequency qubit pairs plus qubits parked
     *  inside a masked band (max over hops when hopping). */
    std::size_t spectrumViolations = 0;
    /** True when the epoch fell back to the full designRobust ladder. */
    bool fullRedesign = false;
};

/** The whole replay under one policy. */
struct DriftAdaptationResult
{
    DriftPolicy policy = DriftPolicy::Static;
    std::vector<DriftEpochResult> epochs;
    /** Frequencies in force after the last epoch. */
    std::vector<double> finalFrequencyGHz;
    /** Ladder concessions accumulated over every full redesign. */
    DegradationReport degradation;

    double endFidelity() const;
    double meanFidelity() const;
    std::size_t totalViolations() const;
    std::size_t totalRetunes() const;
    std::size_t fullRedesigns() const;
};

/** Replays a drift trace against a design under one policy. */
class DriftAdapter
{
  public:
    DriftAdapter(YoutiaoConfig config, DriftAdaptationConfig adapt);

    /**
     * Replay @p trace against @p design of @p chip. @p data supplies the
     * measured crosstalk the drift trace modulates. The design itself is
     * never mutated; the result carries the adapted frequencies.
     */
    DriftAdaptationResult run(const ChipTopology &chip,
                              const YoutiaoDesign &design,
                              const ChipCharacterization &data,
                              const DriftTrace &trace) const;

  private:
    YoutiaoConfig config_;
    DriftAdaptationConfig adapt_;
};

/** Side-by-side text table of several policies' replays. */
std::string
driftAdaptationReport(const std::vector<DriftAdaptationResult> &results);

/**
 * JSON document bundling the trace with every policy's epoch series
 * (schema youtiao-drift-adaptation-1, docs/FILE_FORMATS.md).
 */
std::string
driftResultsToJson(const DriftTrace &trace,
                   const std::vector<DriftAdaptationResult> &results);

} // namespace youtiao

#endif // YOUTIAO_CORE_DRIFT_ADAPTATION_HPP
