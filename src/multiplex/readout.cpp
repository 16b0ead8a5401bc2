#include "multiplex/readout.hpp"

#include "common/error.hpp"

namespace youtiao {

ReadoutPlan
planReadout(const SymmetricMatrix &d_equiv, const ReadoutConfig &config)
{
    requireConfig(config.feedlineCapacity >= 1,
                  "feedline capacity must be positive");
    requireConfig(config.hiGHz > config.loGHz, "empty readout band");

    FdmGroupingConfig grouping;
    grouping.lineCapacity = config.feedlineCapacity;
    const FdmPlan groups = groupFdm(d_equiv, grouping);

    ReadoutPlan plan;
    plan.feedlines = groups.lines;
    plan.feedlineOfQubit = groups.lineOfQubit;
    plan.resonatorGHz.assign(d_equiv.size(), 0.0);
    const double band = config.hiGHz - config.loGHz;
    for (const auto &line : plan.feedlines) {
        const auto m = static_cast<double>(line.size());
        for (std::size_t k = 0; k < line.size(); ++k) {
            // Even spread with half-slot guard bands at the edges.
            plan.resonatorGHz[line[k]] =
                config.loGHz +
                (static_cast<double>(k) + 0.5) * band / m;
        }
    }
    return plan;
}

} // namespace youtiao
