#include "circuit/circuit.hpp"

#include <numbers>
#include <utility>

#include "common/error.hpp"

namespace youtiao {

const char *
gateKindName(GateKind kind)
{
    switch (kind) {
      case GateKind::RX: return "rx";
      case GateKind::RY: return "ry";
      case GateKind::RZ: return "rz";
      case GateKind::H: return "h";
      case GateKind::X: return "x";
      case GateKind::CZ: return "cz";
      case GateKind::CNOT: return "cnot";
      case GateKind::SWAP: return "swap";
      case GateKind::Measure: return "measure";
      case GateKind::Barrier: return "barrier";
    }
    return "?";
}

QuantumCircuit::QuantumCircuit(std::size_t qubit_count, std::string name)
    : qubitCount_(qubit_count), name_(std::move(name))
{}

void
QuantumCircuit::append(const Gate &gate)
{
    if (gate.kind != GateKind::Barrier) {
        requireConfig(gate.qubit0 < qubitCount_,
                      "gate operand out of range");
        if (isTwoQubit(gate.kind)) {
            requireConfig(gate.qubit1 < qubitCount_,
                          "gate operand out of range");
            requireConfig(gate.qubit0 != gate.qubit1,
                          "two-qubit gate needs distinct operands");
        }
    }
    gates_.push_back(gate);
}

void
QuantumCircuit::rx(std::size_t q, double angle)
{
    append(Gate{GateKind::RX, q, 0, angle});
}

void
QuantumCircuit::ry(std::size_t q, double angle)
{
    append(Gate{GateKind::RY, q, 0, angle});
}

void
QuantumCircuit::rz(std::size_t q, double angle)
{
    append(Gate{GateKind::RZ, q, 0, angle});
}

void
QuantumCircuit::h(std::size_t q)
{
    append(Gate{GateKind::H, q, 0, 0.0});
}

void
QuantumCircuit::x(std::size_t q)
{
    append(Gate{GateKind::X, q, 0, std::numbers::pi});
}

void
QuantumCircuit::cz(std::size_t a, std::size_t b)
{
    append(Gate{GateKind::CZ, a, b, 0.0});
}

void
QuantumCircuit::cnot(std::size_t control, std::size_t target)
{
    append(Gate{GateKind::CNOT, control, target, 0.0});
}

void
QuantumCircuit::swap(std::size_t a, std::size_t b)
{
    append(Gate{GateKind::SWAP, a, b, 0.0});
}

void
QuantumCircuit::measure(std::size_t q)
{
    append(Gate{GateKind::Measure, q, 0, 0.0});
}

void
QuantumCircuit::barrier()
{
    append(Gate{GateKind::Barrier, 0, 0, 0.0});
}

} // namespace youtiao
