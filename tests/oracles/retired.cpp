#include "oracles/retired.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <numeric>
#include <queue>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "graph/shortest_path.hpp"
#include "multiplex/tdm_scheduler.hpp"

namespace youtiao {

int
uniformInt(Prng &prng, int lo, int hi)
{
    requireInternal(lo <= hi, "uniformInt(lo, hi) needs lo <= hi");
    const auto span = static_cast<std::size_t>(
        static_cast<long long>(hi) - lo + 1);
    return lo + static_cast<int>(prng.uniformInt(span));
}

std::vector<std::size_t>
sampleWithoutReplacement(Prng &prng, std::size_t n, std::size_t k)
{
    requireConfig(k <= n, "cannot sample more items than the population");
    std::vector<std::size_t> pool(n);
    std::iota(pool.begin(), pool.end(), 0);
    // Partial Fisher-Yates: only the first k draws are needed.
    for (std::size_t i = 0; i < k; ++i)
        std::swap(pool[i], pool[i + prng.uniformInt(n - i)]);
    pool.resize(k);
    return pool;
}

double
edgeWeight(const Graph &g, std::size_t u, std::size_t v)
{
    for (const Incidence &inc : g.incidences(u)) {
        if (inc.vertex == v)
            return g.edge(inc.edge).weight;
    }
    throw ConfigError("edge (" + std::to_string(u) + ", " +
                      std::to_string(v) + ") not present");
}

std::vector<double>
dijkstra(const Graph &g, std::size_t source)
{
    requireConfig(source < g.vertexCount(), "Dijkstra source out of range");
    constexpr double inf = std::numeric_limits<double>::infinity();
    std::vector<double> dist(g.vertexCount(), inf);
    dist[source] = 0.0;

    using Entry = std::pair<double, std::size_t>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    heap.emplace(0.0, source);
    while (!heap.empty()) {
        const auto [d, v] = heap.top();
        heap.pop();
        if (d > dist[v])
            continue;
        for (const Incidence &inc : g.incidences(v)) {
            const std::size_t n = inc.vertex;
            const double w = g.edge(inc.edge).weight;
            requireConfig(w >= 0.0,
                          "Dijkstra requires non-negative edge weights");
            if (dist[v] + w < dist[n]) {
                dist[n] = dist[v] + w;
                heap.emplace(dist[n], n);
            }
        }
    }
    return dist;
}

std::vector<std::size_t>
greedyColoringCapped(const Graph &conflict, std::size_t capacity,
                     const std::vector<std::size_t> &order)
{
    requireConfig(capacity > 0, "color capacity must be positive");
    std::vector<std::size_t> seq = order;
    if (seq.empty()) {
        seq.resize(conflict.vertexCount());
        std::iota(seq.begin(), seq.end(), 0);
    }
    requireConfig(seq.size() == conflict.vertexCount(),
                  "coloring order must cover every vertex exactly once");
    constexpr std::size_t uncolored = static_cast<std::size_t>(-1);
    std::vector<std::size_t> colors(conflict.vertexCount(), uncolored);
    std::vector<std::size_t> load;
    std::vector<bool> used;
    for (std::size_t v : seq) {
        used.assign(load.size() + 1, false);
        for (const Incidence &inc : conflict.incidences(v)) {
            if (colors[inc.vertex] != uncolored)
                used[colors[inc.vertex]] = true;
        }
        std::size_t c = 0;
        while (c < load.size() && (used[c] || load[c] >= capacity))
            ++c;
        if (c == load.size())
            load.push_back(0);
        colors[v] = c;
        ++load[c];
    }
    return colors;
}

Graph
deviceGraph(const ChipTopology &chip)
{
    Graph g(chip.deviceCount());
    for (std::size_t c = 0; c < chip.couplerCount(); ++c) {
        const std::size_t device = chip.couplerDeviceId(c);
        g.addEdge(chip.coupler(c).qubitA, device);
        g.addEdge(device, chip.coupler(c).qubitB);
    }
    return g;
}

SymmetricMatrix
devicePhysicalDistanceMatrix(const ChipTopology &chip)
{
    SymmetricMatrix m(chip.deviceCount());
    for (std::size_t i = 0; i < m.size(); ++i) {
        for (std::size_t j = i + 1; j < m.size(); ++j)
            m(i, j) = distance(chip.devicePosition(i),
                               chip.devicePosition(j));
    }
    return m;
}

SymmetricMatrix
deviceTopologicalDistanceMatrix(const ChipTopology &chip)
{
    const Graph g = deviceGraph(chip);
    SymmetricMatrix m(g.vertexCount());
    double max_finite = 0.0;
    std::vector<std::pair<std::size_t, std::size_t>> unreachable;
    for (std::size_t i = 0; i < m.size(); ++i) {
        const MultiPathResult bfs = multiPathBfs(g, i);
        for (std::size_t j = i + 1; j < m.size(); ++j) {
            if (bfs.hops[j] == kUnreachable) {
                unreachable.emplace_back(i, j);
                continue;
            }
            m(i, j) = static_cast<double>(bfs.hops[j]) *
                      static_cast<double>(bfs.pathCount[j]);
            max_finite = std::max(max_finite, m(i, j));
        }
    }
    const double penalty = max_finite > 0.0 ? 2.0 * max_finite : 1.0;
    for (const auto &[i, j] : unreachable)
        m(i, j) = penalty;
    return m;
}

double
tdmDurationNs(const QuantumCircuit &qc, const Schedule &schedule,
              const ChipTopology &chip, const TdmPlan &plan,
              const GateDurations &durations, double switch_ns)
{
    const TdmLayerConstraint constraint(chip, plan);
    double total = schedule.durationNs(qc, durations);
    // A DEMUX retargets between consecutive layers when its group serves
    // different devices in them.
    constexpr std::size_t none = static_cast<std::size_t>(-1);
    std::vector<std::size_t> prev_device(plan.groups.size(), none);
    bool have_prev = false;
    for (const auto &layer : schedule.layers) {
        std::vector<std::size_t> now_device(plan.groups.size(), none);
        for (std::size_t gi : layer) {
            for (std::size_t dev :
                 constraint.requiredDevices(qc.gates()[gi]))
                now_device[plan.groupOfDevice[dev]] = dev;
        }
        if (have_prev) {
            for (std::size_t g = 0; g < plan.groups.size(); ++g) {
                if (now_device[g] != none && prev_device[g] != none &&
                    now_device[g] != prev_device[g]) {
                    total += switch_ns;
                    break; // switches overlap across DEMUXes
                }
            }
        }
        for (std::size_t g = 0; g < plan.groups.size(); ++g) {
            if (now_device[g] != none)
                prev_device[g] = now_device[g];
        }
        have_prev = true;
    }
    return total;
}

std::string
renderSchedule(const QuantumCircuit &qc, const Schedule &schedule,
               std::size_t max_layers)
{
    std::ostringstream out;
    const std::size_t layers =
        std::min(max_layers, schedule.layers.size());
    std::vector<std::string> rows(qc.qubitCount(),
                                  std::string(layers, '.'));
    for (std::size_t l = 0; l < layers; ++l) {
        for (std::size_t gi : schedule.layers[l]) {
            const Gate &g = qc.gates()[gi];
            char mark = '1';
            if (isTwoQubit(g.kind))
                mark = '=';
            else if (g.kind == GateKind::Measure)
                mark = 'M';
            rows[g.qubit0][l] = mark;
            if (isTwoQubit(g.kind))
                rows[g.qubit1][l] = mark;
        }
    }
    for (std::size_t q = 0; q < rows.size(); ++q) {
        char label[32];
        std::snprintf(label, sizeof label, "q%-3zu ", q);
        out << label << rows[q] << '\n';
    }
    if (schedule.layers.size() > layers)
        out << "(+" << schedule.layers.size() - layers
            << " more layers)\n";
    return out.str();
}

std::vector<double>
excitationProfile(double lo_ghz, double hi_ghz, std::size_t samples,
                  const PulseConfig &config)
{
    requireConfig(samples >= 2, "need at least two samples");
    requireConfig(hi_ghz > lo_ghz, "empty detuning range");
    std::vector<double> profile;
    profile.reserve(samples);
    for (std::size_t i = 0; i < samples; ++i) {
        const double f = lo_ghz + (hi_ghz - lo_ghz) *
                                      static_cast<double>(i) /
                                      static_cast<double>(samples - 1);
        profile.push_back(spectatorExcitation(f, config));
    }
    return profile;
}

} // namespace youtiao
