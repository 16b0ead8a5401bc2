#include "multiplex/fdm.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"

namespace youtiao {

namespace {

/** The qubit seeding the first group. */
constexpr std::size_t kFirstSeedQubit = 0;

} // namespace

std::size_t
FdmPlan::maxGroupSize() const
{
    std::size_t largest = 0;
    for (const auto &line : lines)
        largest = std::max(largest, line.size());
    return largest;
}

FdmPlan
groupFdm(const SymmetricMatrix &d_equiv, const FdmGroupingConfig &config)
{
    const std::size_t n = d_equiv.size();
    requireConfig(n > 0, "cannot group an empty chip");
    requireConfig(config.lineCapacity >= 1, "line capacity must be >= 1");

    FdmPlan plan;
    plan.lineOfQubit.assign(n, static_cast<std::size_t>(-1));
    std::vector<bool> grouped(n, false);
    std::size_t remaining = n;

    std::size_t seed = kFirstSeedQubit;
    while (remaining > 0) {
        // Start a new line with the seed, then grow Prim-style: always
        // absorb the ungrouped qubit closest (in equivalent distance) to
        // any current member.
        std::vector<std::size_t> group{seed};
        grouped[seed] = true;
        --remaining;
        while (group.size() < config.lineCapacity && remaining > 0) {
            double best = std::numeric_limits<double>::infinity();
            std::size_t pick = n;
            for (std::size_t cand = 0; cand < n; ++cand) {
                if (grouped[cand])
                    continue;
                for (std::size_t member : group) {
                    const double d = d_equiv(member, cand);
                    if (d < best) {
                        best = d;
                        pick = cand;
                    }
                }
            }
            requireInternal(pick < n, "no candidate found while growing");
            group.push_back(pick);
            grouped[pick] = true;
            --remaining;
        }
        const std::size_t line_id = plan.lines.size();
        for (std::size_t member : group)
            plan.lineOfQubit[member] = line_id;
        plan.lines.push_back(std::move(group));

        if (remaining > 0) {
            // Next seed: the ungrouped qubit farthest from all grouped
            // ones, so successive lines tile the chip instead of
            // re-growing next to the previous group.
            double far_best = -1.0;
            std::size_t far_pick = n;
            for (std::size_t cand = 0; cand < n; ++cand) {
                if (grouped[cand])
                    continue;
                double nearest = std::numeric_limits<double>::infinity();
                for (std::size_t q = 0; q < n; ++q) {
                    if (grouped[q])
                        nearest = std::min(nearest, d_equiv(q, cand));
                }
                if (nearest > far_best) {
                    far_best = nearest;
                    far_pick = cand;
                }
            }
            seed = far_pick;
        }
    }
    return plan;
}

FdmPlan
groupFdmLocalCluster(const ChipTopology &chip, std::size_t line_capacity)
{
    requireConfig(line_capacity >= 1, "line capacity must be >= 1");
    const std::size_t n = chip.qubitCount();
    FdmPlan plan;
    plan.lineOfQubit.assign(n, static_cast<std::size_t>(-1));
    for (std::size_t q = 0; q < n; ++q) {
        const std::size_t line_id = q / line_capacity;
        if (line_id >= plan.lines.size())
            plan.lines.emplace_back();
        plan.lines[line_id].push_back(q);
        plan.lineOfQubit[q] = line_id;
    }
    return plan;
}

double
meanIntraGroupDistance(const FdmPlan &plan, const SymmetricMatrix &d_equiv)
{
    double total = 0.0;
    std::size_t pairs = 0;
    for (const auto &line : plan.lines) {
        for (std::size_t i = 0; i < line.size(); ++i) {
            for (std::size_t j = i + 1; j < line.size(); ++j) {
                total += d_equiv(line[i], line[j]);
                ++pairs;
            }
        }
    }
    return pairs == 0 ? 0.0 : total / static_cast<double>(pairs);
}

} // namespace youtiao
