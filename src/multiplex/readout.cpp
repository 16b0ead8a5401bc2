#include "multiplex/readout.hpp"

#include "common/error.hpp"

namespace youtiao {

namespace {

/** Resonator band (GHz), above the qubit band. */
constexpr double kReadoutBandLoGHz = 7.0;
constexpr double kReadoutBandHiGHz = 8.5;

} // namespace

ReadoutPlan
planReadout(const SymmetricMatrix &d_equiv, std::size_t feedline_capacity)
{
    requireConfig(feedline_capacity >= 1,
                  "feedline capacity must be positive");

    FdmGroupingConfig grouping;
    grouping.lineCapacity = feedline_capacity;
    const FdmPlan groups = groupFdm(d_equiv, grouping);

    ReadoutPlan plan;
    plan.feedlines = groups.lines;
    plan.feedlineOfQubit = groups.lineOfQubit;
    plan.resonatorGHz.assign(d_equiv.size(), 0.0);
    const double band = kReadoutBandHiGHz - kReadoutBandLoGHz;
    for (const auto &line : plan.feedlines) {
        const auto m = static_cast<double>(line.size());
        for (std::size_t k = 0; k < line.size(); ++k) {
            // Even spread with half-slot guard bands at the edges.
            plan.resonatorGHz[line[k]] =
                kReadoutBandLoGHz +
                (static_cast<double>(k) + 0.5) * band / m;
        }
    }
    return plan;
}

} // namespace youtiao
