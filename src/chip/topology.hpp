/**
 * @file
 * ChipTopology: the full device-level model of a superconducting chip.
 *
 * The qubit graph (vertices = qubits, edges = couplers) serves circuit
 * mapping and two-qubit-gate reasoning. Z-line/TDM reasoning treats
 * couplers as first-class devices next to the qubits.
 *
 * Device indexing convention: device id d refers to qubit d when
 * d < qubitCount(), otherwise to coupler d - qubitCount().
 */

#ifndef YOUTIAO_CHIP_TOPOLOGY_HPP
#define YOUTIAO_CHIP_TOPOLOGY_HPP

#include <string>
#include <vector>

#include "chip/device.hpp"
#include "graph/graph.hpp"

namespace youtiao {

/** A complete chip: placed qubits, placed couplers, and connectivity. */
class ChipTopology
{
  public:
    ChipTopology() = default;

    /** Construct an empty chip with a human-readable name. */
    explicit ChipTopology(std::string name);

    const std::string &name() const { return name_; }

    std::size_t qubitCount() const { return qubits_.size(); }
    std::size_t couplerCount() const { return couplers_.size(); }
    /** Total Z-controlled devices: qubits + couplers. */
    std::size_t deviceCount() const
    {
        return qubits_.size() + couplers_.size();
    }

    /** Add a qubit; returns its index. */
    std::size_t addQubit(const QubitInfo &info);

    /**
     * Add a coupler between two existing qubits; placed at their midpoint
     * unless @p at is provided. Returns its coupler index.
     */
    std::size_t addCoupler(std::size_t qubit_a, std::size_t qubit_b);
    std::size_t addCoupler(std::size_t qubit_a, std::size_t qubit_b,
                           const Point &at);

    const QubitInfo &qubit(std::size_t index) const;
    QubitInfo &qubit(std::size_t index);
    const CouplerInfo &coupler(std::size_t index) const;

    const std::vector<QubitInfo> &qubits() const { return qubits_; }
    const std::vector<CouplerInfo> &couplers() const { return couplers_; }

    /** Kind of device id @p device (see indexing convention above). */
    DeviceKind deviceKind(std::size_t device) const;

    /** Chip-plane position of device id @p device. */
    Point devicePosition(std::size_t device) const;

    /** Device id of coupler @p c (offset by qubitCount). */
    std::size_t couplerDeviceId(std::size_t c) const;

    /**
     * Qubit connectivity graph; edge index i corresponds to coupler i.
     */
    const Graph &qubitGraph() const { return qubitGraph_; }

    /** Euclidean distance between two qubits (mm). */
    double physicalDistance(std::size_t qubit_a, std::size_t qubit_b) const;

    /** Bounding box width x height of all device positions (mm). */
    Point boundingBox() const;

    /** Coupler index joining two qubits, or npos when not coupled. */
    std::size_t couplerBetween(std::size_t qubit_a,
                               std::size_t qubit_b) const;

    /** Sentinel for "no such coupler". */
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  private:
    std::string name_;
    std::vector<QubitInfo> qubits_;
    std::vector<CouplerInfo> couplers_;
    Graph qubitGraph_;
};

} // namespace youtiao

#endif // YOUTIAO_CHIP_TOPOLOGY_HPP
