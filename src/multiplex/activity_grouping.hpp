/**
 * @file
 * Workload-aware ("dynamic") TDM grouping.
 *
 * The topology-driven grouping of tdm.hpp predicts non-parallelism from
 * the coupling map alone. When representative workloads are available,
 * non-parallelism can be *measured*: two devices whose Z-activity windows
 * never coincide across the observed schedules can share a DEMUX at zero
 * depth cost -- the generalization of the surface-code co-design
 * (core/fault_tolerant) to arbitrary circuits, and the strongest reading
 * of the paper's "dynamic qubit grouping".
 */

#ifndef YOUTIAO_MULTIPLEX_ACTIVITY_GROUPING_HPP
#define YOUTIAO_MULTIPLEX_ACTIVITY_GROUPING_HPP

#include <cstdint>
#include <vector>

#include "chip/topology.hpp"
#include "circuit/scheduler.hpp"
#include "multiplex/tdm.hpp"

namespace youtiao {

/** Per-device Z-activity traces accumulated over observed schedules. */
class DeviceActivity
{
  public:
    explicit DeviceActivity(const ChipTopology &chip);

    /**
     * Record which devices need Z control in every layer of
     * @p schedule for @p circuit (CZ gates occupy both qubits and their
     * coupler). The circuit must be physical (CZs on coupled qubits).
     */
    void observe(const QuantumCircuit &circuit, const Schedule &schedule);

    /** Layers observed so far (across all circuits). */
    std::size_t observedLayers() const { return layers_; }

    /** Layers in which device @p d was Z-active. */
    std::size_t activeLayers(std::size_t d) const;

    /** Layers in which both devices were Z-active simultaneously. */
    std::size_t overlapLayers(std::size_t d1, std::size_t d2) const;

    /**
     * Overlap fraction: co-active layers / min(active layers) -- 0 when
     * the devices never contend, 1 when the rarer device is always
     * co-active with the other. Devices never observed active overlap
     * with nothing.
     */
    double overlap(std::size_t d1, std::size_t d2) const;

  private:
    const ChipTopology &chip_;
    std::size_t layers_ = 0;
    /** One bit per observed layer per device, 64 layers per word. */
    std::vector<std::vector<std::uint64_t>> trace_;
};

/**
 * Greedy DEMUX grouping from measured activity: fill 1:4 groups with
 * devices whose pairwise overlap stays at or below @p max_overlap
 * (and which share no gate triple), busiest devices first so hot devices
 * anchor their own groups. Falls back to dedicated lines for devices
 * that fit nowhere.
 */
TdmPlan groupTdmByActivity(const ChipTopology &chip,
                           const DeviceActivity &activity,
                           double max_overlap = 0.0);

} // namespace youtiao

#endif // YOUTIAO_MULTIPLEX_ACTIVITY_GROUPING_HPP
