#include "multiplex/tdm_scheduler.hpp"

#include "common/error.hpp"

namespace youtiao {

TdmLayerConstraint::TdmLayerConstraint(const ChipTopology &chip,
                                       const TdmPlan &plan)
    : chip_(chip), plan_(plan)
{
    requireConfig(plan.groupOfDevice.size() == chip.deviceCount(),
                  "TDM plan does not cover the chip");
}

std::vector<std::size_t>
TdmLayerConstraint::requiredDevices(const Gate &gate) const
{
    // Only CZ drives the Z plane: square pulses on both qubits and their
    // coupler. XY gates, virtual RZs and readout use other planes.
    if (gate.kind != GateKind::CZ)
        return {};
    const std::size_t coupler =
        chip_.couplerBetween(gate.qubit0, gate.qubit1);
    requireConfig(coupler != ChipTopology::npos,
                  "CZ between uncoupled qubits; transpile first");
    return {gate.qubit0, gate.qubit1, chip_.couplerDeviceId(coupler)};
}

bool
TdmLayerConstraint::canCoexist(const Gate &gate,
                               const std::vector<Gate> &layer_gates) const
{
    const auto needed = requiredDevices(gate);
    if (needed.empty())
        return true;
    for (const Gate &other : layer_gates) {
        for (std::size_t dev_other : requiredDevices(other)) {
            const std::size_t group = plan_.groupOfDevice[dev_other];
            for (std::size_t dev : needed) {
                if (plan_.groupOfDevice[dev] == group)
                    return false;
            }
        }
    }
    return true;
}

NoisyGateConstraint::NoisyGateConstraint(const ChipTopology &chip,
                                         const SymmetricMatrix &zz_qubit,
                                         double threshold_mhz)
    : chip_(chip), zz_(zz_qubit), thresholdMHz_(threshold_mhz)
{
    requireConfig(zz_qubit.size() == chip.qubitCount(),
                  "ZZ matrix must cover every qubit");
    requireConfig(threshold_mhz >= 0.0, "threshold must be >= 0");
}

bool
NoisyGateConstraint::canCoexist(const Gate &gate,
                                const std::vector<Gate> &layer_gates) const
{
    if (!isTwoQubit(gate.kind))
        return true;
    for (const Gate &other : layer_gates) {
        if (!isTwoQubit(other.kind))
            continue;
        for (std::size_t qa : {gate.qubit0, gate.qubit1}) {
            for (std::size_t qb : {other.qubit0, other.qubit1}) {
                if (qa != qb && zz_(qa, qb) > thresholdMHz_)
                    return false;
            }
        }
    }
    (void)chip_;
    return true;
}

CompositeConstraint::CompositeConstraint(
    std::vector<const LayerConstraint *> parts)
    : parts_(std::move(parts))
{
    for (const LayerConstraint *p : parts_)
        requireConfig(p != nullptr, "null constraint in composite");
}

bool
CompositeConstraint::canCoexist(const Gate &gate,
                                const std::vector<Gate> &layer_gates) const
{
    for (const LayerConstraint *p : parts_) {
        if (!p->canCoexist(gate, layer_gates))
            return false;
    }
    return true;
}

Schedule
scheduleWithTdmAndNoise(const QuantumCircuit &qc, const ChipTopology &chip,
                        const TdmPlan &plan,
                        const SymmetricMatrix &zz_qubit,
                        double threshold_mhz)
{
    const TdmLayerConstraint tdm(chip, plan);
    for (const Gate &g : qc.gates())
        (void)tdm.requiredDevices(g);
    const NoisyGateConstraint noisy(chip, zz_qubit, threshold_mhz);
    const CompositeConstraint both({&tdm, &noisy});
    return scheduleCircuit(qc, &both);
}

Schedule
scheduleWithTdm(const QuantumCircuit &qc, const ChipTopology &chip,
                const TdmPlan &plan)
{
    const TdmLayerConstraint constraint(chip, plan);
    // Validate every gate's device demand up front: a CZ across a missing
    // coupler must fail loudly instead of sliding into an empty layer
    // (canCoexist is only consulted against non-empty layers).
    for (const Gate &g : qc.gates())
        (void)constraint.requiredDevices(g);
    return scheduleCircuit(qc, &constraint);
}

} // namespace youtiao
