#include "oracles/retired.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/error.hpp"
#include "multiplex/tdm_scheduler.hpp"

namespace youtiao {

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
