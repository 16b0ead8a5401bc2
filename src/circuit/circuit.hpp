/**
 * @file
 * QuantumCircuit: an ordered gate list over n qubits.
 */

#ifndef YOUTIAO_CIRCUIT_CIRCUIT_HPP
#define YOUTIAO_CIRCUIT_CIRCUIT_HPP

#include <string>
#include <vector>

#include "circuit/gate.hpp"

namespace youtiao {

/** An ordered quantum circuit. */
class QuantumCircuit
{
  public:
    QuantumCircuit() = default;

    /** A named circuit over @p qubit_count qubits. */
    QuantumCircuit(std::size_t qubit_count, std::string name = "");

    std::size_t qubitCount() const { return qubitCount_; }
    const std::string &name() const { return name_; }
    void setName(std::string name) { name_ = std::move(name); }

    const std::vector<Gate> &gates() const { return gates_; }
    std::size_t gateCount() const { return gates_.size(); }

    /** Append a generic gate (validated). */
    void append(const Gate &gate);

    /** @{ Convenience appenders. */
    void rx(std::size_t q, double angle);
    void ry(std::size_t q, double angle);
    void rz(std::size_t q, double angle);
    void h(std::size_t q);
    void x(std::size_t q);
    void cz(std::size_t a, std::size_t b);
    void cnot(std::size_t control, std::size_t target);
    void swap(std::size_t a, std::size_t b);
    void measure(std::size_t q);
    void barrier();
    /** @} */

  private:
    std::size_t qubitCount_ = 0;
    std::string name_;
    std::vector<Gate> gates_;
};

} // namespace youtiao

#endif // YOUTIAO_CIRCUIT_CIRCUIT_HPP
