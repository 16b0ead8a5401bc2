#include "checks.hpp"

#include <cmath>
#include <cstdint>
#include <deque>

namespace perfbench {

using namespace youtiao;

namespace {

constexpr double kCoaxUsd = 3000.0;
constexpr double kDacChannelUsd = 3640.0;
constexpr double kTwistedPairUsd = 200.0;
constexpr std::size_t kQubitsPerReadoutFeed = 8;
constexpr std::size_t kQubitsPerReadoutDac = 4;

std::size_t
ceilDiv(std::size_t a, std::size_t b)
{
    return (a + b - 1) / b;
}

/** Each of @p items ids in [0, items) sits in exactly one of @p lines,
 *  agrees with @p line_of, and no line holds more than @p capacity. */
void
checkCover(const std::vector<std::vector<std::size_t>> &lines,
           const std::vector<std::size_t> &line_of, std::size_t items,
           std::size_t capacity, const char *what, Problems &problems)
{
    std::vector<std::size_t> seen(items, 0);
    for (std::size_t l = 0; l < lines.size(); ++l) {
        if (lines[l].size() > capacity)
            problems.push_back(std::string(what) + " line " +
                               std::to_string(l) + " holds " +
                               std::to_string(lines[l].size()) +
                               " > capacity " + std::to_string(capacity));
        for (std::size_t id : lines[l]) {
            if (id >= items) {
                problems.push_back(std::string(what) + " line " +
                                   std::to_string(l) + " names id " +
                                   std::to_string(id) + " out of range");
                continue;
            }
            ++seen[id];
            if (id >= line_of.size() || line_of[id] != l)
                problems.push_back(std::string(what) + " index of id " +
                                   std::to_string(id) +
                                   " disagrees with its line");
        }
    }
    for (std::size_t id = 0; id < items; ++id)
        if (seen[id] != 1)
            problems.push_back(std::string(what) + ": id " +
                               std::to_string(id) + " on " +
                               std::to_string(seen[id]) + " lines");
}

} // namespace

double
recomputeCostUsd(std::size_t qubits, const YoutiaoDesign &design)
{
    std::size_t select_lines = 0;
    for (const TdmGroup &group : design.zPlan.groups)
        for (std::size_t f = group.fanout; f > 1; f /= 2)
            ++select_lines;
    const std::size_t analog =
        design.xyPlan.lines.size() + design.zPlan.groups.size();
    const std::size_t coax = analog + ceilDiv(qubits, kQubitsPerReadoutFeed);
    const std::size_t dacs = analog + ceilDiv(qubits, kQubitsPerReadoutDac);
    return kCoaxUsd * static_cast<double>(coax) +
           kDacChannelUsd * static_cast<double>(dacs) +
           kTwistedPairUsd * static_cast<double>(select_lines);
}

void
checkDesign(const ChipTopology &chip, const YoutiaoDesign &design,
            std::size_t xy_capacity, std::size_t readout_capacity,
            Problems &problems)
{
    const std::size_t q = chip.qubitCount();
    const std::size_t devices = q + chip.couplerCount();
    checkCover(design.xyPlan.lines, design.xyPlan.lineOfQubit, q,
               xy_capacity, "XY", problems);
    checkCover(design.readoutPlan.lines, design.readoutPlan.lineOfQubit, q,
               readout_capacity, "readout", problems);

    std::vector<std::vector<std::size_t>> z_lines;
    z_lines.reserve(design.zPlan.groups.size());
    for (std::size_t g = 0; g < design.zPlan.groups.size(); ++g) {
        const TdmGroup &group = design.zPlan.groups[g];
        if (group.fanout != 1 && group.fanout != 2 && group.fanout != 4)
            problems.push_back("Z group " + std::to_string(g) +
                               " has fan-out " +
                               std::to_string(group.fanout));
        if (group.devices.size() > group.fanout)
            problems.push_back("Z group " + std::to_string(g) + " holds " +
                               std::to_string(group.devices.size()) +
                               " devices behind a 1:" +
                               std::to_string(group.fanout) + " DEMUX");
        z_lines.push_back(group.devices);
    }
    checkCover(z_lines, design.zPlan.groupOfDevice, devices, 4, "Z",
               problems);

    const double expected = recomputeCostUsd(q, design);
    if (std::fabs(expected - design.costUsd) > 1e-6 * expected)
        problems.push_back("cost " + std::to_string(design.costUsd) +
                           " USD, recomputed " + std::to_string(expected));
}

void
checkNetsConnected(const std::vector<NetSpec> &nets,
                   const RoutedWiring &routed, const std::string &where,
                   Problems &problems)
{
    const ChipRoutingResult &result = routed.result;
    if (!result.grid.has_value()) {
        problems.push_back(where + ": routing returned no grid");
        return;
    }
    // The router's final net list: nets that fell back are split into
    // one dedicated single-terminal net each, in place.
    std::vector<bool> split(nets.size(), false);
    for (std::size_t i : routed.fallbackNets)
        if (i < nets.size())
            split[i] = true;
    std::vector<std::vector<Point>> terminals;
    for (std::size_t i = 0; i < nets.size(); ++i) {
        if (!split[i]) {
            terminals.push_back(nets[i].terminals);
            continue;
        }
        for (const Point &t : nets[i].terminals)
            terminals.push_back({t});
    }
    if (terminals.size() != result.netCount ||
        result.interfaces.size() != terminals.size()) {
        problems.push_back(where + ": routed " +
                           std::to_string(result.netCount) + " nets with " +
                           std::to_string(result.interfaces.size()) +
                           " interfaces, expected " +
                           std::to_string(terminals.size()));
        return;
    }

    const RoutingGrid &grid = *result.grid;
    const std::size_t w = grid.width();
    const std::size_t cells = w * grid.height();
    // Cells a net bridges over keep their owner; collect them per net.
    std::vector<std::vector<std::size_t>> bridges(terminals.size());
    for (const Crossover &x : result.crossovers)
        if (x.byNet >= 0 &&
            static_cast<std::size_t>(x.byNet) < terminals.size())
            bridges[static_cast<std::size_t>(x.byNet)].push_back(
                x.cell.y * w + x.cell.x);

    std::vector<std::uint32_t> stamp(cells, 0);
    std::vector<std::uint32_t> bridge_stamp(cells, 0);
    std::deque<std::size_t> queue;
    for (std::size_t n = 0; n < terminals.size(); ++n) {
        const auto net = static_cast<std::int32_t>(n);
        const auto mark = static_cast<std::uint32_t>(n + 1);
        for (std::size_t c : bridges[n])
            bridge_stamp[c] = mark;
        auto passable = [&](std::size_t c) {
            const Cell cell{c % w, c / w};
            return grid.owner(cell) == net || bridge_stamp[c] == mark;
        };
        const Cell iface = grid.cellAt(result.interfaces[n]);
        const std::size_t start = iface.y * w + iface.x;
        if (!passable(start)) {
            problems.push_back(where + ": net " + std::to_string(n) +
                               " does not own its interface cell");
            continue;
        }
        stamp[start] = mark;
        queue.assign(1, start);
        while (!queue.empty()) {
            const std::size_t c = queue.front();
            queue.pop_front();
            const std::size_t x = c % w;
            const std::size_t y = c / w;
            const std::size_t next[4] = {
                x > 0 ? c - 1 : cells, x + 1 < w ? c + 1 : cells,
                y > 0 ? c - w : cells, c + w < cells ? c + w : cells};
            for (std::size_t m : next) {
                if (m < cells && stamp[m] != mark && passable(m)) {
                    stamp[m] = mark;
                    queue.push_back(m);
                }
            }
        }
        for (const Point &t : terminals[n]) {
            const Cell cell = grid.cellAt(t);
            if (stamp[cell.y * w + cell.x] != mark)
                problems.push_back(where + ": net " + std::to_string(n) +
                                   " leaves a terminal unconnected");
        }
    }
}

} // namespace perfbench
