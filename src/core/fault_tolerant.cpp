#include "core/fault_tolerant.hpp"

#include <algorithm>
#include <array>

#include "circuit/surface_code_circuit.hpp"
#include "common/error.hpp"
#include "noise/equivalent_distance.hpp"

namespace youtiao {

namespace {

constexpr std::size_t kUnassigned = static_cast<std::size_t>(-1);

void
addGroup(TdmPlan &plan, std::vector<std::size_t> devices)
{
    TdmGroup group;
    if (devices.size() > 2)
        group.fanout = 4;
    else if (devices.size() == 2)
        group.fanout = 2;
    else
        group.fanout = 1;
    group.devices = std::move(devices);
    const std::size_t id = plan.groups.size();
    for (std::size_t d : group.devices)
        plan.groupOfDevice[d] = id;
    plan.groups.push_back(std::move(group));
}

} // namespace

SurfaceCodeWiring
designSurfaceCodeWiring(const SurfaceCodeLayout &layout,
                        const YoutiaoConfig &config,
                        std::size_t overlap_budget)
{
    const ChipTopology &chip = layout.chip;
    SurfaceCodeWiring out;

    // XY plane: FDM grouping over the equivalent-distance graph, exactly
    // as on generic chips.
    const SymmetricMatrix d_equiv = equivalentDistanceMatrix(
        qubitPhysicalDistanceMatrix(chip),
        qubitTopologicalDistanceMatrix(chip), 0.6, 0.4);
    out.xyPlan = groupFdm(d_equiv, config.fdm);

    // Z plane.
    out.zPlan.groupOfDevice.assign(chip.deviceCount(), kUnassigned);

    // 1. One DEMUX per stabilizer's couplers: the dance fires them in
    //    different steps, so deep multiplexing is depth-free.
    for (std::size_t m = 0; m < chip.qubitCount(); ++m) {
        if (layout.roles[m] == SurfaceCodeRole::Data)
            continue;
        std::vector<std::size_t> group;
        for (const Incidence &inc : chip.qubitGraph().incidences(m))
            group.push_back(chip.couplerDeviceId(inc.edge));
        addGroup(out.zPlan, std::move(group));
    }

    // 2. Data qubits: active-step sets from the dance; greedy pairing
    //    whose overlaps stay inside the sacrificed-step set.
    const auto steps = surfaceCodeDanceSteps(layout);
    std::vector<std::array<bool, 4>> active(chip.qubitCount(),
                                            {false, false, false, false});
    for (std::size_t s = 0; s < steps.size(); ++s) {
        for (const auto &[m, d] : steps[s])
            active[d][s] = true;
    }
    std::vector<std::size_t> data_qubits;
    for (std::size_t q = 0; q < chip.qubitCount(); ++q) {
        if (layout.roles[q] == SurfaceCodeRole::Data)
            data_qubits.push_back(q);
    }
    // Fewest active steps first: the easiest qubits to pair.
    std::sort(data_qubits.begin(), data_qubits.end(),
              [&active](std::size_t a, std::size_t b) {
                  const auto count = [&active](std::size_t q) {
                      return std::count(active[q].begin(), active[q].end(),
                                        true);
                  };
                  return count(a) != count(b) ? count(a) < count(b)
                                              : a < b;
              });
    std::array<bool, 4> sacrificed{false, false, false, false};
    std::size_t sacrificed_count = 0;
    std::vector<bool> paired(chip.qubitCount(), false);
    for (std::size_t i = 0; i < data_qubits.size(); ++i) {
        const std::size_t a = data_qubits[i];
        if (paired[a])
            continue;
        for (std::size_t j = i + 1; j < data_qubits.size(); ++j) {
            const std::size_t b = data_qubits[j];
            if (paired[b])
                continue;
            // Steps where both would contend for the shared DEMUX.
            std::array<bool, 4> overlap{};
            std::size_t extra = 0;
            for (std::size_t s = 0; s < 4; ++s) {
                overlap[s] = active[a][s] && active[b][s];
                if (overlap[s] && !sacrificed[s])
                    ++extra;
            }
            if (sacrificed_count + extra > overlap_budget)
                continue;
            for (std::size_t s = 0; s < 4; ++s) {
                if (overlap[s] && !sacrificed[s]) {
                    sacrificed[s] = true;
                    ++sacrificed_count;
                }
            }
            addGroup(out.zPlan, {a, b});
            paired[a] = true;
            paired[b] = true;
            break;
        }
    }

    // 3. Everything else -- measure qubits (Z-active in every step) and
    //    unpaired data qubits -- keeps a dedicated line.
    for (std::size_t q = 0; q < chip.qubitCount(); ++q) {
        if (out.zPlan.groupOfDevice[q] == kUnassigned)
            addGroup(out.zPlan, {q});
    }
    out.sacrificedSteps = sacrificed_count;
    requireInternal(allGatesRealizable(chip, out.zPlan),
                    "surface-code wiring broke a gate");

    out.counts = multiplexedWiringCounts(chip.qubitCount(), out.xyPlan,
                                         out.zPlan, config.cost);
    out.costUsd = wiringCostUsd(out.counts);
    return out;
}

} // namespace youtiao
