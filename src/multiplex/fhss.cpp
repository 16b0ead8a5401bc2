#include "multiplex/fhss.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <sstream>

#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/prng.hpp"

namespace youtiao {

namespace {

/**
 * Shuffled rotation blocks per period. Each block visits every rotation
 * (0..k-1) exactly once, so a period covers every member-channel pairing
 * kBlocksPerPeriod times.
 */
constexpr std::size_t kBlocksPerPeriod = 4;

} // namespace

double
GroupHopSchedule::frequencyAtHop(std::size_t member_index,
                                 std::size_t hop) const
{
    const std::size_t k = channelsGHz.size();
    if (k < 2 || sequence.empty())
        return channelsGHz.empty() ? 0.0
                                   : channelsGHz[homeChannel[member_index]];
    const std::size_t rotation = sequence[hop % sequence.size()];
    return channelsGHz[(rotation + homeChannel[member_index]) % k];
}

HopPlan
buildHopPlan(const FdmPlan &plan, const FrequencyPlan &freq,
             const FhssConfig &config)
{
    const metrics::ScopedTimer timer("fhss.build");
    HopPlan out;
    out.config = config;
    out.groups.reserve(plan.lines.size());

    for (std::size_t line = 0; line < plan.lines.size(); ++line) {
        GroupHopSchedule g;
        g.line = line;
        g.members = plan.lines[line];
        const std::size_t k = g.members.size();

        // Channel table: the members' static frequencies, ascending.
        // Members of one line occupy distinct zones, so ties cannot
        // happen on clean allocations; sort by (frequency, qubit) so a
        // degenerate plan still yields a deterministic table.
        std::vector<std::size_t> order(k);
        std::iota(order.begin(), order.end(), 0);
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      const double fa = freq.frequencyGHz[g.members[a]];
                      const double fb = freq.frequencyGHz[g.members[b]];
                      if (fa != fb)
                          return fa < fb;
                      return g.members[a] < g.members[b];
                  });
        g.channelsGHz.resize(k);
        g.homeChannel.resize(k);
        for (std::size_t rank = 0; rank < k; ++rank) {
            g.channelsGHz[rank] = freq.frequencyGHz[g.members[order[rank]]];
            g.homeChannel[order[rank]] = rank;
        }

        // Single-member (or empty) groups have nothing to hop between.
        if (k >= 2) {
            // ExpressLRS-style sequence: a block per shuffle, each block
            // visiting every rotation once, with the sync slot (identity
            // rotation - everyone on their home channel) pinned to the
            // block head. Seeded per line so groups are decorrelated yet
            // the whole plan replays from one root seed.
            Prng prng(taskSeed(config.seed, line));
            g.sequence.reserve(kBlocksPerPeriod * k);
            std::vector<std::size_t> rotations(k - 1);
            for (std::size_t block = 0; block < kBlocksPerPeriod; ++block) {
                g.sequence.push_back(0);
                std::iota(rotations.begin(), rotations.end(), 1u);
                prng.shuffle(rotations);
                g.sequence.insert(g.sequence.end(), rotations.begin(),
                                  rotations.end());
            }
        }
        out.groups.push_back(std::move(g));
    }
    return out;
}

std::vector<double>
frequenciesAtHop(const HopPlan &hop_plan, const FrequencyPlan &freq,
                 std::size_t hop)
{
    std::vector<double> out = freq.frequencyGHz;
    for (const auto &g : hop_plan.groups) {
        if (g.channelCount() < 2)
            continue;
        for (std::size_t m = 0; m < g.members.size(); ++m)
            out[g.members[m]] = g.frequencyAtHop(m, hop);
    }
    return out;
}

std::size_t
countSpectrumCollisions(const std::vector<double> &frequency_ghz)
{
    std::vector<double> sorted = frequency_ghz;
    std::sort(sorted.begin(), sorted.end());
    std::size_t collisions = 0;
    std::size_t run = 1;
    for (std::size_t i = 1; i <= sorted.size(); ++i) {
        if (i < sorted.size() && sorted[i] == sorted[i - 1]) {
            ++run;
            continue;
        }
        collisions += run * (run - 1) / 2;
        run = 1;
    }
    return collisions;
}

std::string
hopPlanReport(const HopPlan &hop_plan)
{
    std::ostringstream out;
    out << "-- frequency-hopping schedule (seed 0x" << std::hex
        << hop_plan.config.seed << std::dec << ", "
        << kBlocksPerPeriod << " blocks/period) --\n";
    for (const auto &g : hop_plan.groups) {
        out << "line " << g.line << " (" << g.channelCount()
            << " channels";
        if (g.channelCount() < 2) {
            out << "): static\n";
            continue;
        }
        out << ", period " << g.periodLength() << "):";
        char buf[32];
        for (double f : g.channelsGHz) {
            std::snprintf(buf, sizeof buf, " %.3f", f);
            out << buf;
        }
        out << " GHz\n  rotations:";
        for (std::size_t r : g.sequence)
            out << ' ' << r;
        out << '\n';
    }
    return out.str();
}

std::string
hopPlanToJson(const HopPlan &hop_plan)
{
    std::ostringstream out;
    out << "{\n  \"schema\": \"youtiao-hop-1\",\n  \"seed\": "
        << hop_plan.config.seed << ",\n  \"blocks_per_period\": "
        << kBlocksPerPeriod << ",\n  \"groups\": [";
    for (std::size_t i = 0; i < hop_plan.groups.size(); ++i) {
        const auto &g = hop_plan.groups[i];
        out << (i == 0 ? "\n" : ",\n") << "    {\"line\": " << g.line
            << ", \"members\": [";
        for (std::size_t m = 0; m < g.members.size(); ++m)
            out << (m == 0 ? "" : ", ") << g.members[m];
        out << "], \"channels_ghz\": [";
        for (std::size_t c = 0; c < g.channelsGHz.size(); ++c)
            out << (c == 0 ? "" : ", ")
                << json::formatDouble(g.channelsGHz[c]);
        out << "], \"sequence\": [";
        for (std::size_t s = 0; s < g.sequence.size(); ++s)
            out << (s == 0 ? "" : ", ") << g.sequence[s];
        out << "]}";
    }
    out << "\n  ]\n}\n";
    return out.str();
}

} // namespace youtiao
