/**
 * @file
 * TDM-aware scheduling constraint.
 *
 * A CZ gate needs simultaneous Z pulses on both qubits and their coupler;
 * two gates whose required devices share a cryo-DEMUX group cannot occupy
 * one time window. Plugging this constraint into the list scheduler
 * reproduces the paper's TDM "curse of circuit depth" (Figure 4 Case 3)
 * and lets the benches compare grouping strategies (Figure 14/15).
 */

#ifndef YOUTIAO_MULTIPLEX_TDM_SCHEDULER_HPP
#define YOUTIAO_MULTIPLEX_TDM_SCHEDULER_HPP

#include <vector>

#include "chip/topology.hpp"
#include "circuit/scheduler.hpp"
#include "multiplex/tdm.hpp"

namespace youtiao {

/** LayerConstraint enforcing one active device per DEMUX per layer. */
class TdmLayerConstraint : public LayerConstraint
{
  public:
    /**
     * @p chip supplies gate->coupler resolution; @p plan the grouping.
     * Both must outlive the constraint.
     */
    TdmLayerConstraint(const ChipTopology &chip, const TdmPlan &plan);

    bool canCoexist(const Gate &gate,
                    const std::vector<Gate> &layer_gates) const override;

    /** Z-controlled device ids required by @p gate (empty for XY gates). */
    std::vector<std::size_t> requiredDevices(const Gate &gate) const;

  private:
    const ChipTopology &chip_;
    const TdmPlan &plan_;
};

/**
 * Convenience: schedule @p qc (physical, basis gates) under @p plan and
 * return the layered schedule.
 */
Schedule scheduleWithTdm(const QuantumCircuit &qc, const ChipTopology &chip,
                         const TdmPlan &plan);

/**
 * LayerConstraint forbidding simultaneous two-qubit gates whose mutual ZZ
 * crosstalk exceeds a threshold (the paper's noisy non-parallelism,
 * Section 4.3 Observation 2, enforced at schedule time). YOUTIAO's
 * grouping makes most such pairs share a DEMUX already; this constraint
 * covers the remainder when fidelity matters more than depth.
 */
class NoisyGateConstraint : public LayerConstraint
{
  public:
    /** @p zz_qubit in MHz; gates above @p threshold_mhz serialize. */
    NoisyGateConstraint(const ChipTopology &chip,
                        const SymmetricMatrix &zz_qubit,
                        double threshold_mhz);

    bool canCoexist(const Gate &gate,
                    const std::vector<Gate> &layer_gates) const override;

  private:
    const ChipTopology &chip_;
    const SymmetricMatrix &zz_;
    double thresholdMHz_;
};

/** Conjunction of constraints: a gate joins a layer only if all agree. */
class CompositeConstraint : public LayerConstraint
{
  public:
    explicit CompositeConstraint(
        std::vector<const LayerConstraint *> parts);

    bool canCoexist(const Gate &gate,
                    const std::vector<Gate> &layer_gates) const override;

  private:
    std::vector<const LayerConstraint *> parts_;
};

/**
 * Schedule under both the TDM constraint and the noisy-gate constraint.
 */
Schedule scheduleWithTdmAndNoise(const QuantumCircuit &qc,
                                 const ChipTopology &chip,
                                 const TdmPlan &plan,
                                 const SymmetricMatrix &zz_qubit,
                                 double threshold_mhz);

} // namespace youtiao

#endif // YOUTIAO_MULTIPLEX_TDM_SCHEDULER_HPP
