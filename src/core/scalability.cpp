#include "core/scalability.hpp"

#include <cmath>

#include "common/error.hpp"
#include "cost/cost_model.hpp"
#include "multiplex/parallelism_index.hpp"

namespace youtiao {

ChipTopology
makeGridWithQubitCount(std::size_t qubits)
{
    requireConfig(qubits >= 1, "need at least one qubit");
    const auto rows = static_cast<std::size_t>(
        std::floor(std::sqrt(static_cast<double>(qubits))));
    const std::size_t cols = (qubits + rows - 1) / rows;

    ChipTopology chip("square grid ~" + std::to_string(qubits));
    for (std::size_t q = 0; q < qubits; ++q) {
        const std::size_t r = q / cols;
        const std::size_t c = q % cols;
        QubitInfo info;
        info.position = Point{static_cast<double>(c) * kQubitPitchMm,
                              static_cast<double>(r) * kQubitPitchMm};
        info.t1Ns = kQubitT1Ns;
        chip.addQubit(info);
    }
    for (std::size_t q = 0; q < qubits; ++q) {
        const std::size_t r = q / cols;
        const std::size_t c = q % cols;
        if (c + 1 < cols && q + 1 < qubits && (q + 1) / cols == r)
            chip.addCoupler(q, q + 1);
        if (q + cols < qubits)
            chip.addCoupler(q, q + cols);
    }
    Prng prng(kBaseFrequencySeed);
    assignPatternFrequencies(chip, prng);
    return chip;
}

ScalePoint
estimateSquareSystem(std::size_t qubits, const YoutiaoConfig &config)
{
    const ChipTopology chip = makeGridWithQubitCount(qubits);
    ScalePoint point;
    point.qubits = chip.qubitCount();
    point.couplers = chip.couplerCount();

    const std::vector<double> index = parallelismIndices(chip);
    for (double i : index) {
        if (i >= config.tdm.parallelismThreshold)
            ++point.highParallelismDevices;
    }

    const WiringCounts google = dedicatedWiringCounts(
        point.qubits, point.couplers, config.cost);
    const WiringCounts ours = multiplexedWiringCountsAnalytic(
        point.qubits, point.couplers, config.fdm.lineCapacity,
        point.highParallelismDevices, config.cost);
    point.googleCoax = google.coax();
    point.youtiaoCoax = ours.coax();
    point.googleCostUsd = wiringCostUsd(google);
    point.youtiaoCostUsd = wiringCostUsd(ours);
    return point;
}

ChipletComparison
compareIbmChiplet(std::size_t copies, const YoutiaoConfig &config)
{
    requireConfig(copies >= 1, "need at least one chiplet");
    // A 4x5-cell heavy honeycomb: 135 qubits, the closest heavy-hex
    // tiling to IBM's 133-qubit chips.
    const ChipTopology chiplet = makeHeavy(makeHexagon(4, 5));

    ChipletComparison cmp;
    cmp.copies = copies;
    cmp.qubitsPerChiplet = chiplet.qubitCount();
    cmp.totalQubits = copies * chiplet.qubitCount();

    std::size_t high = 0;
    for (double i : parallelismIndices(chiplet)) {
        if (i >= config.tdm.parallelismThreshold)
            ++high;
    }
    const WiringCounts ibm = dedicatedWiringCounts(
        chiplet.qubitCount(), chiplet.couplerCount(), config.cost);
    const WiringCounts ours = multiplexedWiringCountsAnalytic(
        chiplet.qubitCount(), chiplet.couplerCount(),
        config.fdm.lineCapacity, high, config.cost);
    cmp.ibmCoax = copies * ibm.coax();
    cmp.youtiaoCoax = copies * ours.coax();
    return cmp;
}

HierarchicalCrossCheck
crossCheckHierarchicalCounts(const ChipTopology &chip,
                             const HierarchicalDesign &design,
                             const YoutiaoConfig &config, double band_lo,
                             double band_hi)
{
    requireConfig(band_lo > 0.0 && band_lo < band_hi,
                  "cross-check band must be a positive interval");
    std::size_t high = 0;
    for (double i : parallelismIndices(chip)) {
        if (i >= config.tdm.parallelismThreshold)
            ++high;
    }
    const WiringCounts analytic = multiplexedWiringCountsAnalytic(
        chip.qubitCount(), chip.couplerCount(), config.fdm.lineCapacity,
        high, config.cost);

    HierarchicalCrossCheck check;
    check.actualCoax = design.merged.counts.coax();
    check.analyticCoax = analytic.coax();
    check.bandLo = band_lo;
    check.bandHi = band_hi;
    check.ratio = check.analyticCoax == 0
                      ? 0.0
                      : static_cast<double>(check.actualCoax) /
                            static_cast<double>(check.analyticCoax);
    check.withinBand =
        check.ratio >= band_lo && check.ratio <= band_hi;
    return check;
}

} // namespace youtiao
