#include "core/failure_analysis.hpp"

#include <algorithm>
#include <set>

#include "common/error.hpp"

namespace youtiao {

std::vector<std::size_t>
qubitsLostIfLineFails(const ChipTopology &chip, const YoutiaoDesign &design,
                      WiringPlane plane, std::size_t line_id)
{
    std::set<std::size_t> lost;
    switch (plane) {
      case WiringPlane::Xy: {
        requireConfig(line_id < design.xyPlan.lines.size(),
                      "XY line id out of range");
        for (std::size_t q : design.xyPlan.lines[line_id])
            lost.insert(q);
        break;
      }
      case WiringPlane::Z: {
        requireConfig(line_id < design.zPlan.groups.size(),
                      "Z line id out of range");
        for (std::size_t d : design.zPlan.groups[line_id].devices) {
            if (chip.deviceKind(d) == DeviceKind::Qubit) {
                lost.insert(d);
            } else {
                const CouplerInfo &c =
                    chip.coupler(d - chip.qubitCount());
                lost.insert(c.qubitA);
                lost.insert(c.qubitB);
            }
        }
        break;
      }
      case WiringPlane::Readout: {
        requireConfig(line_id < design.readoutPlan.lines.size(),
                      "readout feedline id out of range");
        for (std::size_t q : design.readoutPlan.lines[line_id])
            lost.insert(q);
        break;
      }
    }
    return {lost.begin(), lost.end()};
}

FailureImpact
analyzeFailureImpact(const ChipTopology &chip, const YoutiaoDesign &design)
{
    FailureImpact impact;
    double sum = 0.0;
    auto account = [&](WiringPlane plane, std::size_t count) {
        for (std::size_t l = 0; l < count; ++l) {
            const auto lost =
                qubitsLostIfLineFails(chip, design, plane, l);
            sum += static_cast<double>(lost.size());
            impact.worstQubitsLost =
                std::max(impact.worstQubitsLost, lost.size());
            ++impact.totalLines;
        }
    };
    account(WiringPlane::Xy, design.xyPlan.lines.size());
    account(WiringPlane::Z, design.zPlan.groups.size());
    account(WiringPlane::Readout, design.readoutPlan.lines.size());
    impact.meanQubitsLost =
        impact.totalLines == 0
            ? 0.0
            : sum / static_cast<double>(impact.totalLines);
    return impact;
}

} // namespace youtiao
