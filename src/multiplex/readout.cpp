#include "multiplex/readout.hpp"

namespace youtiao {

namespace {

/** Resonator band (GHz), above the qubit band. */
constexpr double kReadoutBandLoGHz = 7.0;
constexpr double kReadoutBandHiGHz = 8.5;

} // namespace

ReadoutPlan
planReadout(const FdmPlan &feedlines)
{
    ReadoutPlan plan;
    plan.resonatorGHz.assign(feedlines.lineOfQubit.size(), 0.0);
    const double band = kReadoutBandHiGHz - kReadoutBandLoGHz;
    for (const auto &line : feedlines.lines) {
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
