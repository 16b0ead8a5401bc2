#include "chip/topology.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"

namespace youtiao {

ChipTopology::ChipTopology(std::string name)
    : name_(std::move(name))
{}

std::size_t
ChipTopology::addQubit(const QubitInfo &info)
{
    qubits_.push_back(info);
    qubitGraph_.addVertex();
    return qubits_.size() - 1;
}

std::size_t
ChipTopology::addCoupler(std::size_t qubit_a, std::size_t qubit_b)
{
    requireConfig(qubit_a < qubits_.size() && qubit_b < qubits_.size(),
                  "coupler endpoints must be existing qubits");
    const Point mid{
        0.5 * (qubits_[qubit_a].position.x + qubits_[qubit_b].position.x),
        0.5 * (qubits_[qubit_a].position.y + qubits_[qubit_b].position.y)};
    return addCoupler(qubit_a, qubit_b, mid);
}

std::size_t
ChipTopology::addCoupler(std::size_t qubit_a, std::size_t qubit_b,
                         const Point &at)
{
    requireConfig(qubit_a < qubits_.size() && qubit_b < qubits_.size(),
                  "coupler endpoints must be existing qubits");
    // addEdge rejects self-loops and duplicate couplings for us; the edge
    // index it returns is by construction the coupler index.
    const std::size_t edge = qubitGraph_.addEdge(qubit_a, qubit_b);
    requireInternal(edge == couplers_.size(),
                    "coupler/edge index correspondence broken");
    couplers_.push_back(CouplerInfo{at, qubit_a, qubit_b});
    return couplers_.size() - 1;
}

const QubitInfo &
ChipTopology::qubit(std::size_t index) const
{
    requireConfig(index < qubits_.size(), "qubit index out of range");
    return qubits_[index];
}

QubitInfo &
ChipTopology::qubit(std::size_t index)
{
    requireConfig(index < qubits_.size(), "qubit index out of range");
    return qubits_[index];
}

const CouplerInfo &
ChipTopology::coupler(std::size_t index) const
{
    requireConfig(index < couplers_.size(), "coupler index out of range");
    return couplers_[index];
}

DeviceKind
ChipTopology::deviceKind(std::size_t device) const
{
    requireConfig(device < deviceCount(), "device id out of range");
    return device < qubits_.size() ? DeviceKind::Qubit : DeviceKind::Coupler;
}

Point
ChipTopology::devicePosition(std::size_t device) const
{
    requireConfig(device < deviceCount(), "device id out of range");
    if (device < qubits_.size())
        return qubits_[device].position;
    return couplers_[device - qubits_.size()].position;
}

std::size_t
ChipTopology::couplerDeviceId(std::size_t c) const
{
    requireConfig(c < couplers_.size(), "coupler index out of range");
    return qubits_.size() + c;
}

double
ChipTopology::physicalDistance(std::size_t qubit_a,
                               std::size_t qubit_b) const
{
    requireConfig(qubit_a < qubits_.size() && qubit_b < qubits_.size(),
                  "qubit index out of range");
    return distance(qubits_[qubit_a].position, qubits_[qubit_b].position);
}

Point
ChipTopology::boundingBox() const
{
    if (qubits_.empty())
        return Point{0.0, 0.0};
    double min_x = qubits_[0].position.x, max_x = min_x;
    double min_y = qubits_[0].position.y, max_y = min_y;
    auto fold = [&](const Point &p) {
        min_x = std::min(min_x, p.x);
        max_x = std::max(max_x, p.x);
        min_y = std::min(min_y, p.y);
        max_y = std::max(max_y, p.y);
    };
    for (const QubitInfo &q : qubits_)
        fold(q.position);
    for (const CouplerInfo &c : couplers_)
        fold(c.position);
    return Point{max_x - min_x, max_y - min_y};
}

std::size_t
ChipTopology::couplerBetween(std::size_t qubit_a, std::size_t qubit_b) const
{
    requireConfig(qubit_a < qubits_.size() && qubit_b < qubits_.size(),
                  "qubit index out of range");
    for (const Incidence &inc : qubitGraph_.incidences(qubit_a)) {
        if (inc.vertex == qubit_b)
            return inc.edge;
    }
    return npos;
}

} // namespace youtiao
