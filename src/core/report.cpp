#include "core/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/error.hpp"

namespace youtiao {

std::string
chipMap(const ChipTopology &chip, const std::vector<std::size_t> &assignment)
{
    requireConfig(assignment.size() == chip.qubitCount(),
                  "assignment must cover every qubit");
    if (chip.qubitCount() == 0)
        return "";

    // Coarsen positions onto a character grid, two columns per site so
    // letters do not touch.
    double min_x = chip.qubit(0).position.x, max_x = min_x;
    double min_y = chip.qubit(0).position.y, max_y = min_y;
    for (const QubitInfo &q : chip.qubits()) {
        min_x = std::min(min_x, q.position.x);
        max_x = std::max(max_x, q.position.x);
        min_y = std::min(min_y, q.position.y);
        max_y = std::max(max_y, q.position.y);
    }
    // Site pitch estimate: smallest non-zero coordinate gap.
    double pitch = std::max(max_x - min_x, max_y - min_y);
    for (std::size_t a = 0; a < chip.qubitCount(); ++a) {
        for (std::size_t b = a + 1; b < chip.qubitCount(); ++b) {
            const double d = chip.physicalDistance(a, b);
            if (d > 1e-9)
                pitch = std::min(pitch, d);
        }
    }
    if (pitch <= 0.0)
        pitch = 1.0;
    const auto cols = static_cast<std::size_t>(
                          std::lround((max_x - min_x) / pitch)) + 1;
    const auto rows = static_cast<std::size_t>(
                          std::lround((max_y - min_y) / pitch)) + 1;
    std::vector<std::string> canvas(rows, std::string(2 * cols, '.'));
    for (std::size_t q = 0; q < chip.qubitCount(); ++q) {
        const auto cx = static_cast<std::size_t>(
            std::lround((chip.qubit(q).position.x - min_x) / pitch));
        const auto cy = static_cast<std::size_t>(
            std::lround((chip.qubit(q).position.y - min_y) / pitch));
        if (cy < rows && 2 * cx < canvas[cy].size())
            canvas[cy][2 * cx] = static_cast<char>(
                'A' + static_cast<char>(assignment[q] % 26));
    }
    std::ostringstream out;
    for (auto it = canvas.rbegin(); it != canvas.rend(); ++it)
        out << *it << '\n';
    return out.str();
}

std::string
wiringReport(const ChipTopology &chip, const YoutiaoDesign &design,
             const YoutiaoConfig &config)
{
    std::ostringstream out;
    char line[160];

    out << "== YOUTIAO wiring report: " << chip.name() << " ==\n";
    std::snprintf(line, sizeof line,
                  "%zu qubits, %zu couplers; crosstalk model w_phy=%.1f "
                  "w_top=%.1f\n\n",
                  chip.qubitCount(), chip.couplerCount(),
                  design.xyModel.wPhy(), design.xyModel.wTop());
    out << line;

    out << "-- XY plane (FDM, capacity " << config.fdm.lineCapacity
        << ") --\n";
    for (std::size_t l = 0; l < design.xyPlan.lines.size(); ++l) {
        out << "line " << l << ":";
        for (std::size_t q : design.xyPlan.lines[l]) {
            std::snprintf(line, sizeof line, " q%zu@%.2fGHz", q,
                          design.frequencyPlan.frequencyGHz[q]);
            out << line;
        }
        out << '\n';
    }
    out << "\nchip map by FDM line:\n"
        << chipMap(chip, design.xyPlan.lineOfQubit);

    out << "\n-- Z plane (TDM) --\n";
    std::snprintf(line, sizeof line,
                  "%zu lines: %zu x 1:4, %zu x 1:2, %zu dedicated; "
                  "%zu twisted-pair select lines\n",
                  design.zPlan.lineCount(),
                  design.zPlan.groupCountWithFanout(4),
                  design.zPlan.groupCountWithFanout(2),
                  design.zPlan.groupCountWithFanout(1),
                  design.zPlan.selectLineCount());
    out << line;

    out << "\n-- cryostat bill --\n";
    std::snprintf(line, sizeof line,
                  "coax %zu | RF DACs %zu | interfaces %zu | cost "
                  "$%.0fK\n",
                  design.counts.coax(), design.counts.rfDacs(),
                  design.counts.interfaces(), design.costUsd / 1e3);
    out << line;
    // Only robust-path designs that actually gave something up carry a
    // degradation block; clean reports stay byte-identical.
    if (!design.degradation.empty())
        out << '\n' << design.degradation.summary();
    return out.str();
}

std::string
costComparison(const YoutiaoDesign &ours, const BaselineDesign &baseline,
               const std::string &baseline_name)
{
    char line[160];
    std::snprintf(line, sizeof line,
                  "%s: %zu coax / $%.0fK  ->  YOUTIAO: %zu coax / $%.0fK "
                  "(%.1fx cheaper)",
                  baseline_name.c_str(), baseline.counts.coax(),
                  baseline.costUsd / 1e3, ours.counts.coax(),
                  ours.costUsd / 1e3, baseline.costUsd / ours.costUsd);
    return line;
}

std::string
hierarchicalReport(const ChipTopology &chip,
                   const HierarchicalDesign &design,
                   const YoutiaoConfig &config)
{
    std::ostringstream out;
    char line[200];

    out << "== YOUTIAO hierarchical design: " << chip.name() << " ==\n";
    std::snprintf(line, sizeof line,
                  "%zu qubits, %zu couplers; %zux%zu tile lattice, "
                  "%zu non-empty tiles, %zu seam couplers\n\n",
                  chip.qubitCount(), chip.couplerCount(),
                  design.map.tilesX, design.map.tilesY,
                  design.tiles.size(), design.seamCouplers.size());
    out << line;

    out << "-- tiles (FDM capacity " << config.fdm.lineCapacity
        << ") --\n";
    for (const HierarchicalTile &tile : design.tiles) {
        std::snprintf(line, sizeof line,
                      "tile (%zu,%zu): %zu qubits, %zu couplers, "
                      "%zu XY lines, %zu Z lines, cost $%.0fK%s\n",
                      tile.ix, tile.iy, tile.qubits.size(),
                      tile.couplers.size(),
                      tile.design.xyPlan.lines.size(),
                      tile.design.zPlan.lineCount(),
                      tile.design.costUsd / 1e3,
                      tile.design.degradation.empty() ? ""
                                                      : " [degraded]");
        out << line;
    }

    out << "\n-- seam stitch --\n";
    std::snprintf(line, sizeof line,
                  "radius %.2f mm; %zu cross-seam pairs checked, "
                  "%zu retunes, %zu above epsilon (worst %.3g)\n",
                  design.seamRadiusMmUsed, design.seamPairsChecked,
                  design.seamRetunes, design.seamViolationsUnresolved,
                  design.maxSeamCrosstalk);
    out << line;

    out << "\n-- merged cryostat bill --\n";
    std::snprintf(line, sizeof line,
                  "XY %zu | Z %zu | readout feeds %zu | coax %zu | "
                  "RF DACs %zu | cost $%.0fK\n",
                  design.merged.counts.xyLines,
                  design.merged.counts.zLines,
                  design.merged.counts.readoutFeeds,
                  design.merged.counts.coax(),
                  design.merged.counts.rfDacs(),
                  design.merged.costUsd / 1e3);
    out << line;
    if (!design.merged.degradation.empty())
        out << '\n' << design.merged.degradation.summary();
    return out.str();
}

} // namespace youtiao

namespace youtiao {

} // namespace youtiao
