#include "multiplex/plan_merge.hpp"

#include "common/error.hpp"

namespace youtiao {

namespace {

void
requireTile(const TilePlanRefs &tile)
{
    requireConfig(tile.qubitMap != nullptr && tile.couplerMap != nullptr,
                  "tile plan refs missing index maps");
}

} // namespace

FdmPlan
mergeFdmPlans(std::size_t qubit_count,
              const std::vector<TilePlanRefs> &tiles,
              const FdmPlan *TilePlanRefs::*plan)
{
    FdmPlan merged;
    merged.lineOfQubit.assign(qubit_count, 0);
    for (const TilePlanRefs &tile : tiles) {
        requireTile(tile);
        const FdmPlan *local = tile.*plan;
        requireConfig(local != nullptr, "tile plan refs missing FDM plan");
        const std::size_t base = merged.lines.size();
        for (const auto &line : local->lines) {
            std::vector<std::size_t> global_line;
            global_line.reserve(line.size());
            for (std::size_t q : line)
                global_line.push_back((*tile.qubitMap)[q]);
            merged.lines.push_back(std::move(global_line));
        }
        for (std::size_t q = 0; q < tile.qubitMap->size(); ++q)
            merged.lineOfQubit[(*tile.qubitMap)[q]] =
                base + local->lineOfQubit[q];
    }
    return merged;
}

FrequencyPlan
mergeFrequencyPlans(std::size_t qubit_count,
                    const std::vector<TilePlanRefs> &tiles)
{
    FrequencyPlan merged;
    merged.frequencyGHz.assign(qubit_count, 0.0);
    merged.zoneOfQubit.assign(qubit_count, 0);
    merged.cellOfQubit.assign(qubit_count, 0);
    for (const TilePlanRefs &tile : tiles) {
        requireTile(tile);
        requireConfig(tile.frequency != nullptr,
                      "tile plan refs missing frequency plan");
        const FrequencyPlan &plan = *tile.frequency;
        for (std::size_t q = 0; q < tile.qubitMap->size(); ++q) {
            const std::size_t g = (*tile.qubitMap)[q];
            merged.frequencyGHz[g] = plan.frequencyGHz[q];
            merged.zoneOfQubit[g] = plan.zoneOfQubit[q];
            merged.cellOfQubit[g] = plan.cellOfQubit[q];
        }
        merged.zoneCount = std::max(merged.zoneCount, plan.zoneCount);
        merged.crosstalkCost += plan.crosstalkCost;
    }
    return merged;
}

TdmPlan
mergeTdmPlans(std::size_t qubit_count, std::size_t coupler_count,
              const std::vector<TilePlanRefs> &tiles)
{
    TdmPlan merged;
    merged.groupOfDevice.assign(qubit_count + coupler_count, 0);
    for (const TilePlanRefs &tile : tiles) {
        requireTile(tile);
        requireConfig(tile.z != nullptr, "tile plan refs missing Z plan");
        const std::size_t base = merged.groups.size();
        const std::size_t local_qubits = tile.qubitMap->size();
        const auto to_global = [&](std::size_t local_device) {
            if (local_device < local_qubits)
                return (*tile.qubitMap)[local_device];
            return qubit_count +
                   (*tile.couplerMap)[local_device - local_qubits];
        };
        for (const TdmGroup &group : tile.z->groups) {
            TdmGroup lifted;
            lifted.fanout = group.fanout;
            lifted.devices.reserve(group.devices.size());
            for (std::size_t d : group.devices)
                lifted.devices.push_back(to_global(d));
            merged.groups.push_back(std::move(lifted));
        }
        for (std::size_t d = 0; d < tile.z->groupOfDevice.size(); ++d)
            merged.groupOfDevice[to_global(d)] =
                base + tile.z->groupOfDevice[d];
    }
    return merged;
}

std::vector<TdmGroup>
packSeamCouplerGroups(const ChipTopology &chip,
                      const std::vector<std::size_t> &seam_couplers,
                      const std::vector<double> &parallelism_index,
                      const TdmGroupingConfig &config)
{
    requireConfig(parallelism_index.size() == chip.deviceCount(),
                  "parallelism index does not match the chip");
    static_assert(kLowParallelismFanout >= 1 && kHighParallelismFanout >= 1,
                  "DEMUX fan-out must be at least 1");
    std::vector<std::size_t> low, high;
    for (std::size_t c : seam_couplers) {
        requireConfig(c < chip.couplerCount(),
                      "seam coupler index out of range");
        const double index = parallelism_index[chip.couplerDeviceId(c)];
        if (index >= config.parallelismThreshold)
            high.push_back(chip.couplerDeviceId(c));
        else
            low.push_back(chip.couplerDeviceId(c));
    }
    std::vector<TdmGroup> groups;
    const auto pack = [&groups](const std::vector<std::size_t> &devices,
                                std::size_t fanout) {
        for (std::size_t at = 0; at < devices.size(); at += fanout) {
            TdmGroup group;
            group.fanout = fanout;
            const std::size_t end =
                std::min(devices.size(), at + fanout);
            group.devices.assign(devices.begin() + static_cast<long>(at),
                                 devices.begin() + static_cast<long>(end));
            groups.push_back(std::move(group));
        }
    };
    pack(low, kLowParallelismFanout);
    pack(high, kHighParallelismFanout);
    return groups;
}

void
appendTdmGroups(TdmPlan &plan, std::vector<TdmGroup> groups)
{
    for (TdmGroup &group : groups) {
        const std::size_t id = plan.groups.size();
        for (std::size_t d : group.devices) {
            requireConfig(d < plan.groupOfDevice.size(),
                          "TDM group device out of range");
            plan.groupOfDevice[d] = id;
        }
        plan.groups.push_back(std::move(group));
    }
}

} // namespace youtiao
