#include "oracles/statevector.hpp"

#include <utility>
#include <cmath>

#include "common/error.hpp"

namespace youtiao {

namespace {

using Cplx = std::complex<double>;

void
rotationMatrix(GateKind kind, double angle, Cplx (&u)[2][2])
{
    const double c = std::cos(angle / 2.0);
    const double s = std::sin(angle / 2.0);
    switch (kind) {
      case GateKind::RX:
        u[0][0] = c;
        u[0][1] = Cplx(0, -s);
        u[1][0] = Cplx(0, -s);
        u[1][1] = c;
        break;
      case GateKind::RY:
        u[0][0] = c;
        u[0][1] = -s;
        u[1][0] = s;
        u[1][1] = c;
        break;
      case GateKind::RZ:
        u[0][0] = std::exp(Cplx(0, -angle / 2.0));
        u[0][1] = 0;
        u[1][0] = 0;
        u[1][1] = std::exp(Cplx(0, angle / 2.0));
        break;
      default:
        throw InternalError("not a rotation gate");
    }
}

} // namespace

StateVector::StateVector(std::size_t qubit_count)
    : qubitCount_(qubit_count)
{
    requireConfig(qubit_count >= 1 && qubit_count <= 24,
                  "state vector supports 1..24 qubits");
    amps_.assign(std::size_t{1} << qubit_count, Cplx(0, 0));
    amps_[0] = Cplx(1, 0);
}

void
StateVector::applySingleQubit(std::size_t qubit, const Cplx (&u)[2][2])
{
    requireConfig(qubit < qubitCount_, "qubit out of range");
    const std::size_t stride = std::size_t{1} << qubit;
    // Pair p couples amplitudes i0 and i0 + stride.
    for (std::size_t p = 0; p < amps_.size() / 2; ++p) {
        const std::size_t i0 =
            ((p & ~(stride - 1)) << 1) | (p & (stride - 1));
        const std::size_t i1 = i0 + stride;
        const Cplx a0 = amps_[i0];
        const Cplx a1 = amps_[i1];
        amps_[i0] = u[0][0] * a0 + u[0][1] * a1;
        amps_[i1] = u[1][0] * a0 + u[1][1] * a1;
    }
}

void
StateVector::applyCz(std::size_t a, std::size_t b)
{
    requireConfig(a < qubitCount_ && b < qubitCount_ && a != b,
                  "CZ operands invalid");
    const std::size_t mask =
        (std::size_t{1} << a) | (std::size_t{1} << b);
    for (std::size_t i = 0; i < amps_.size(); ++i) {
        if ((i & mask) == mask)
            amps_[i] = -amps_[i];
    }
}

void
StateVector::applyGate(const Gate &gate)
{
    Cplx u[2][2];
    switch (gate.kind) {
      case GateKind::RX:
      case GateKind::RY:
      case GateKind::RZ:
        rotationMatrix(gate.kind, gate.angle, u);
        applySingleQubit(gate.qubit0, u);
        break;
      case GateKind::H: {
        const double r = 1.0 / std::sqrt(2.0);
        u[0][0] = r;
        u[0][1] = r;
        u[1][0] = r;
        u[1][1] = -r;
        applySingleQubit(gate.qubit0, u);
        break;
      }
      case GateKind::X:
        u[0][0] = 0;
        u[0][1] = 1;
        u[1][0] = 1;
        u[1][1] = 0;
        applySingleQubit(gate.qubit0, u);
        break;
      case GateKind::CZ:
        applyCz(gate.qubit0, gate.qubit1);
        break;
      case GateKind::CNOT: {
        // CX = (I (x) H) CZ (I (x) H) on the target.
        const double r = 1.0 / std::sqrt(2.0);
        u[0][0] = r;
        u[0][1] = r;
        u[1][0] = r;
        u[1][1] = -r;
        applySingleQubit(gate.qubit1, u);
        applyCz(gate.qubit0, gate.qubit1);
        applySingleQubit(gate.qubit1, u);
        break;
      }
      case GateKind::SWAP: {
        const std::size_t bit_a = std::size_t{1} << gate.qubit0;
        const std::size_t bit_b = std::size_t{1} << gate.qubit1;
        // Each index with (a=1, b=0) swaps with its (a=0, b=1) partner.
        for (std::size_t i = 0; i < amps_.size(); ++i) {
            if ((i & bit_a) != 0 && (i & bit_b) == 0)
                std::swap(amps_[i], amps_[(i & ~bit_a) | bit_b]);
        }
        break;
      }
      case GateKind::Measure:
      case GateKind::Barrier:
        break; // no state change in this noiseless oracle
    }
}

void
StateVector::run(const QuantumCircuit &qc)
{
    requireConfig(qc.qubitCount() <= qubitCount_,
                  "circuit wider than the register");
    for (const Gate &g : qc.gates())
        applyGate(g);
}

double
StateVector::probabilityOfOne(std::size_t qubit) const
{
    requireConfig(qubit < qubitCount_, "qubit out of range");
    const std::size_t bit = std::size_t{1} << qubit;
    double p = 0.0;
    for (std::size_t i = 0; i < amps_.size(); ++i) {
        if (i & bit)
            p += std::norm(amps_[i]);
    }
    return p;
}

double
StateVector::probability(std::size_t basis_index) const
{
    requireConfig(basis_index < amps_.size(), "basis index out of range");
    return std::norm(amps_[basis_index]);
}

double
StateVector::fidelityWith(const StateVector &other) const
{
    requireConfig(amps_.size() == other.amps_.size(),
                  "state sizes differ");
    Cplx overlap(0, 0);
    for (std::size_t i = 0; i < amps_.size(); ++i)
        overlap += std::conj(amps_[i]) * other.amps_[i];
    return std::norm(overlap);
}

double
StateVector::norm() const
{
    double n = 0.0;
    for (const Cplx &a : amps_)
        n += std::norm(a);
    return n;
}

StateVector
simulate(const QuantumCircuit &qc)
{
    StateVector state(qc.qubitCount());
    state.run(qc);
    return state;
}

} // namespace youtiao
