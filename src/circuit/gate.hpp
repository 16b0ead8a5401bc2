/**
 * @file
 * Gate records of the quantum-circuit IR.
 *
 * The device basis is {RX, RY, RZ, CZ} (the paper's chips), with H, X and
 * CNOT available as logical gates that the transpiler lowers. RZ is a
 * virtual frame rotation (no physical pulse); CZ consumes the Z lines of
 * both qubits and their coupler, which is what TDM serializes.
 */

#ifndef YOUTIAO_CIRCUIT_GATE_HPP
#define YOUTIAO_CIRCUIT_GATE_HPP

#include <cstddef>

namespace youtiao {

/** Supported gate kinds. */
enum class GateKind
{
    RX,      ///< rotation about X (XY-line microwave pulse)
    RY,      ///< rotation about Y (XY-line microwave pulse)
    RZ,      ///< virtual Z rotation (frame update, no pulse)
    H,       ///< logical Hadamard (lowered to RY/RZ)
    X,       ///< logical X (lowered to RX(pi))
    CZ,      ///< native two-qubit gate (Z pulses on both qubits + coupler)
    CNOT,    ///< logical CNOT (lowered to H/CZ/H)
    SWAP,    ///< logical SWAP (lowered to three CNOTs)
    Measure, ///< dispersive readout via the qubit's readout resonator
    Barrier, ///< scheduling barrier across all qubits
};

/** True for kinds acting on two qubits. */
constexpr bool
isTwoQubit(GateKind kind)
{
    return kind == GateKind::CZ || kind == GateKind::CNOT ||
           kind == GateKind::SWAP;
}

/** True for gates realized by an XY-line microwave drive. */
constexpr bool
usesXyLine(GateKind kind)
{
    return kind == GateKind::RX || kind == GateKind::RY ||
           kind == GateKind::H || kind == GateKind::X;
}

/** Printable mnemonic. */
const char *gateKindName(GateKind kind);

/** One gate instance. */
struct Gate
{
    GateKind kind = GateKind::RZ;
    /** First (or only) operand qubit. */
    std::size_t qubit0 = 0;
    /** Second operand for two-qubit kinds; ignored otherwise. */
    std::size_t qubit1 = 0;
    /** Rotation angle in radians for RX/RY/RZ; ignored otherwise. */
    double angle = 0.0;
};

} // namespace youtiao

#endif // YOUTIAO_CIRCUIT_GATE_HPP
