#include "multiplex/activity_grouping.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

#include "common/error.hpp"

namespace youtiao {

DeviceActivity::DeviceActivity(const ChipTopology &chip)
    : chip_(chip), trace_(chip.deviceCount())
{}

void
DeviceActivity::observe(const QuantumCircuit &circuit,
                        const Schedule &schedule)
{
    requireConfig(circuit.qubitCount() <= chip_.qubitCount(),
                  "circuit wider than the chip");
    for (const auto &layer : schedule.layers) {
        const std::size_t word = layers_ / 64;
        const std::uint64_t bit = std::uint64_t{1} << (layers_ % 64);
        for (auto &t : trace_) {
            if (t.size() <= word)
                t.resize(word + 1, 0);
        }
        for (std::size_t gi : layer) {
            const Gate &g = circuit.gates()[gi];
            if (g.kind != GateKind::CZ)
                continue;
            const std::size_t c =
                chip_.couplerBetween(g.qubit0, g.qubit1);
            requireConfig(c != ChipTopology::npos,
                          "CZ between uncoupled qubits; transpile first");
            trace_[g.qubit0][word] |= bit;
            trace_[g.qubit1][word] |= bit;
            trace_[chip_.couplerDeviceId(c)][word] |= bit;
        }
        ++layers_;
    }
}

std::size_t
DeviceActivity::activeLayers(std::size_t d) const
{
    requireConfig(d < trace_.size(), "device id out of range");
    std::size_t count = 0;
    for (std::uint64_t w : trace_[d])
        count += static_cast<std::size_t>(std::popcount(w));
    return count;
}

std::size_t
DeviceActivity::overlapLayers(std::size_t d1, std::size_t d2) const
{
    requireConfig(d1 < trace_.size() && d2 < trace_.size(),
                  "device id out of range");
    const std::size_t words =
        std::min(trace_[d1].size(), trace_[d2].size());
    std::size_t count = 0;
    for (std::size_t w = 0; w < words; ++w)
        count += static_cast<std::size_t>(
            std::popcount(trace_[d1][w] & trace_[d2][w]));
    return count;
}

double
DeviceActivity::overlap(std::size_t d1, std::size_t d2) const
{
    const std::size_t a1 = activeLayers(d1);
    const std::size_t a2 = activeLayers(d2);
    if (a1 == 0 || a2 == 0)
        return 0.0;
    return static_cast<double>(overlapLayers(d1, d2)) /
           static_cast<double>(std::min(a1, a2));
}

TdmPlan
groupTdmByActivity(const ChipTopology &chip, const DeviceActivity &activity,
                   double max_overlap)
{
    requireConfig(max_overlap >= 0.0 && max_overlap <= 1.0,
                  "overlap budget must be a fraction");
    constexpr std::size_t kUnassigned = static_cast<std::size_t>(-1);
    TdmPlan plan;
    plan.groupOfDevice.assign(chip.deviceCount(), kUnassigned);

    // Busiest devices first: they anchor groups, quieter devices slot in
    // around them.
    std::vector<std::size_t> order(chip.deviceCount());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&activity](std::size_t a, std::size_t b) {
                  const std::size_t la = activity.activeLayers(a);
                  const std::size_t lb = activity.activeLayers(b);
                  return la != lb ? la > lb : a < b;
              });

    std::vector<bool> taken(chip.deviceCount(), false);
    for (std::size_t seed : order) {
        if (taken[seed])
            continue;
        std::vector<std::size_t> group{seed};
        taken[seed] = true;
        for (std::size_t cand : order) {
            if (group.size() >= kLowParallelismFanout)
                break;
            if (taken[cand])
                continue;
            bool ok = true;
            for (std::size_t member : group) {
                if (devicesShareGate(chip, member, cand) ||
                    activity.overlap(member, cand) > max_overlap) {
                    ok = false;
                    break;
                }
            }
            if (ok) {
                group.push_back(cand);
                taken[cand] = true;
            }
        }
        TdmGroup g;
        if (group.size() > 2)
            g.fanout = 4;
        else if (group.size() == 2)
            g.fanout = 2;
        else
            g.fanout = 1;
        g.devices = std::move(group);
        const std::size_t id = plan.groups.size();
        for (std::size_t d : g.devices)
            plan.groupOfDevice[d] = id;
        plan.groups.push_back(std::move(g));
    }
    requireInternal(allGatesRealizable(chip, plan),
                    "activity grouping produced an unrealizable gate");
    return plan;
}

} // namespace youtiao
