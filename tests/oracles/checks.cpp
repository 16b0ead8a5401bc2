#include "oracles/checks.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "common/error.hpp"

namespace youtiao {

namespace {

/** Lorentzian power bleed of a probe detuned by df from a resonator. */
double
bleedFraction(double df_ghz, const ReadoutPhysics &physics)
{
    const double x = 2.0 * df_ghz / physics.resonatorLinewidthGHz;
    return 1.0 / (1.0 + x * x);
}

} // namespace

bool
isBasisOnly(const QuantumCircuit &qc)
{
    return std::all_of(qc.gates().begin(), qc.gates().end(),
                       [](const Gate &g) { return isBasisGate(g.kind); });
}

QuantumCircuit
inverse(const QuantumCircuit &qc)
{
    QuantumCircuit out(qc.qubitCount(),
                       qc.name().empty() ? "" : qc.name() + "^-1");
    for (auto it = qc.gates().rbegin(); it != qc.gates().rend(); ++it) {
        Gate g = *it;
        requireConfig(g.kind != GateKind::Measure,
                      "measured circuits are not invertible");
        switch (g.kind) {
          case GateKind::RX:
          case GateKind::RY:
          case GateKind::RZ:
            g.angle = -g.angle;
            break;
          default:
            break; // H, X, CZ, CNOT, SWAP, Barrier are self-inverse
        }
        out.append(g);
    }
    return out;
}

bool
isProperColoring(const Graph &conflict,
                 const std::vector<std::size_t> &colors)
{
    if (colors.size() != conflict.vertexCount())
        return false;
    for (const Edge &e : conflict.edges()) {
        if (colors[e.u] == colors[e.v])
            return false;
    }
    return true;
}

std::size_t
colorCount(const std::vector<std::size_t> &colors)
{
    constexpr std::size_t uncolored = static_cast<std::size_t>(-1);
    std::size_t max_color = 0;
    bool any = false;
    for (std::size_t c : colors) {
        if (c == uncolored)
            continue;
        any = true;
        max_color = std::max(max_color, c);
    }
    return any ? max_color + 1 : 0;
}

std::vector<std::size_t>
connectedComponents(const Graph &g)
{
    constexpr std::size_t unvisited = static_cast<std::size_t>(-1);
    std::vector<std::size_t> label(g.vertexCount(), unvisited);
    std::size_t next_label = 0;
    for (std::size_t start = 0; start < g.vertexCount(); ++start) {
        if (label[start] != unvisited)
            continue;
        std::queue<std::size_t> frontier;
        frontier.push(start);
        label[start] = next_label;
        while (!frontier.empty()) {
            const std::size_t v = frontier.front();
            frontier.pop();
            for (const Incidence &inc : g.incidences(v)) {
                if (label[inc.vertex] == unvisited) {
                    label[inc.vertex] = next_label;
                    frontier.push(inc.vertex);
                }
            }
        }
        ++next_label;
    }
    return label;
}

bool
isConnected(const Graph &g)
{
    const auto labels = connectedComponents(g);
    return std::all_of(labels.begin(), labels.end(),
                       [](std::size_t l) { return l == 0; });
}

bool
partitionPassesDrc(const ChipTopology &chip, const ChipPartition &partition)
{
    std::vector<std::size_t> seen(chip.qubitCount(), 0);
    for (const auto &region : partition.regions) {
        if (region.empty())
            return false;
        // The region's induced subgraph, on local vertex ids.
        std::vector<std::size_t> local(chip.qubitCount(),
                                       static_cast<std::size_t>(-1));
        for (std::size_t i = 0; i < region.size(); ++i) {
            if (region[i] >= chip.qubitCount())
                return false;
            ++seen[region[i]];
            local[region[i]] = i;
        }
        Graph induced(region.size());
        for (const Edge &e : chip.qubitGraph().edges()) {
            if (local[e.u] != static_cast<std::size_t>(-1) &&
                local[e.v] != static_cast<std::size_t>(-1))
                induced.addEdge(local[e.u], local[e.v]);
        }
        if (!isConnected(induced))
            return false;
    }
    return std::all_of(seen.begin(), seen.end(),
                       [](std::size_t c) { return c == 1; });
}

bool
hasUniformOccupancy(const GroupHopSchedule &g)
{
    const std::size_t k = g.channelCount();
    if (k < 2)
        return true;
    if (g.sequence.size() % k != 0)
        return false;
    const std::size_t blocks = g.sequence.size() / k;
    // Block heads are sync slots (identity rotation).
    for (std::size_t block = 0; block < blocks; ++block) {
        if (g.sequence[block * k] != 0)
            return false;
    }
    // Every member visits every channel exactly `blocks` times: since a
    // rotation is a bijection, it suffices that each rotation value
    // appears exactly once per block.
    for (std::size_t block = 0; block < blocks; ++block) {
        std::vector<std::size_t> seen(k, 0);
        for (std::size_t i = 0; i < k; ++i) {
            const std::size_t r = g.sequence[block * k + i];
            if (r >= k)
                return false;
            ++seen[r];
        }
        for (std::size_t r = 0; r < k; ++r) {
            if (seen[r] != 1)
                return false;
        }
    }
    return true;
}

std::size_t
maxPeriodLength(const HopPlan &plan)
{
    std::size_t longest = 0;
    for (const auto &g : plan.groups)
        longest = std::max(longest, g.periodLength());
    return longest;
}

double
worstChannelCrosstalkDb(const FdmPlan &feedlines, const ReadoutPlan &tones,
                        const ReadoutPhysics &physics)
{
    double worst = 0.0; // fraction
    for (const auto &line : feedlines.lines) {
        for (std::size_t i = 0; i < line.size(); ++i) {
            for (std::size_t j = i + 1; j < line.size(); ++j) {
                const double df =
                    std::abs(tones.resonatorGHz[line[i]] -
                             tones.resonatorGHz[line[j]]);
                worst = std::max(worst, bleedFraction(df, physics));
            }
        }
    }
    if (worst <= 0.0)
        return -300.0; // effectively perfect isolation
    return 10.0 * std::log10(worst);
}

bool
meetsIsolation(const FdmPlan &feedlines, const ReadoutPlan &tones,
               const ReadoutPhysics &physics)
{
    return worstChannelCrosstalkDb(feedlines, tones, physics) <=
           -physics.isolationDb;
}

std::vector<double>
singleShotFidelities(const FdmPlan &feedlines, const ReadoutPlan &tones,
                     const ReadoutPhysics &physics)
{
    std::vector<double> fidelities(feedlines.lineOfQubit.size(), 1.0);
    for (const auto &line : feedlines.lines) {
        for (std::size_t q : line) {
            double error = physics.intrinsicAssignmentError;
            for (std::size_t other : line) {
                if (other == q)
                    continue;
                const double df = std::abs(tones.resonatorGHz[q] -
                                           tones.resonatorGHz[other]);
                error += bleedFraction(df, physics);
            }
            fidelities[q] = 1.0 - std::min(error, 1.0);
        }
    }
    return fidelities;
}

} // namespace youtiao
