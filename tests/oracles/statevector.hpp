/**
 * @file
 * Dense state-vector simulator (test oracle, serial).
 *
 * The functional oracle for the circuit substrate: tests use it to
 * verify that benchmark generators, gate decompositions and the
 * transpiler preserve semantics. No system binary runs a state vector.
 * Practical up to ~20 qubits.
 */

#ifndef YOUTIAO_TESTS_ORACLES_STATEVECTOR_HPP
#define YOUTIAO_TESTS_ORACLES_STATEVECTOR_HPP

#include <complex>
#include <vector>

#include "circuit/circuit.hpp"

namespace youtiao {

/** A pure n-qubit state in the computational basis (qubit 0 = LSB). */
class StateVector
{
  public:
    /** |0...0> over @p qubit_count qubits (capped at 24 for memory). */
    explicit StateVector(std::size_t qubit_count);

    std::size_t qubitCount() const { return qubitCount_; }
    const std::vector<std::complex<double>> &amplitudes() const
    {
        return amps_;
    }

    /** Apply a 2x2 unitary to @p qubit. */
    void applySingleQubit(std::size_t qubit,
                          const std::complex<double> (&u)[2][2]);

    /** Apply CZ between two qubits. */
    void applyCz(std::size_t a, std::size_t b);

    /** Apply one IR gate (Measure/Barrier are no-ops here). */
    void applyGate(const Gate &gate);

    /** Run a whole circuit (must fit this register). */
    void run(const QuantumCircuit &qc);

    /** Probability of measuring @p qubit as 1. */
    double probabilityOfOne(std::size_t qubit) const;

    /** Probability of the computational basis state @p basis_index. */
    double probability(std::size_t basis_index) const;

    /** |<this|other>|^2. */
    double fidelityWith(const StateVector &other) const;

    /** Sum of squared amplitudes (should stay 1). */
    double norm() const;

  private:
    std::size_t qubitCount_ = 0;
    std::vector<std::complex<double>> amps_;
};

/** Run @p qc from |0...0> and return the final state. */
StateVector simulate(const QuantumCircuit &qc);

} // namespace youtiao

#endif // YOUTIAO_TESTS_ORACLES_STATEVECTOR_HPP
