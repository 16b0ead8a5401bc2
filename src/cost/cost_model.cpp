#include "cost/cost_model.hpp"

#include "common/error.hpp"

namespace youtiao {

namespace {

/** One coaxial line through all cryostat stages (USD). */
constexpr double kCoaxUsd = 3000.0;
/** One RF DAC channel (USD). */
constexpr double kRfDacUsd = 3640.0;
/** One twisted-pair DEMUX select line incl. digital IO (USD). */
constexpr double kDemuxSelectUsd = 200.0;
/** Qubits per readout DAC channel. */
constexpr std::size_t kReadoutDacCapacity = 4;

std::size_t
ceilDiv(std::size_t a, std::size_t b)
{
    return (a + b - 1) / b;
}

} // namespace

double
wiringCostUsd(const WiringCounts &counts)
{
    return kCoaxUsd * static_cast<double>(counts.coax()) +
           kRfDacUsd * static_cast<double>(counts.rfDacs()) +
           kDemuxSelectUsd * static_cast<double>(counts.demuxSelectLines);
}

WiringCounts
dedicatedWiringCounts(std::size_t qubits, std::size_t couplers,
                      const CostModelConfig &config)
{
    requireConfig(qubits > 0, "chip has no qubits");
    WiringCounts counts;
    counts.xyLines = qubits;
    counts.zLines = qubits + couplers;
    counts.readoutFeeds = ceilDiv(qubits, config.readoutFeedCapacity);
    counts.readoutDacs = ceilDiv(qubits, kReadoutDacCapacity);
    return counts;
}

WiringCounts
multiplexedWiringCounts(std::size_t qubits, const FdmPlan &xy_plan,
                        const TdmPlan &z_plan,
                        const CostModelConfig &config)
{
    requireConfig(qubits > 0, "chip has no qubits");
    WiringCounts counts;
    counts.xyLines = xy_plan.lineCount();
    counts.zLines = z_plan.lineCount();
    counts.readoutFeeds = ceilDiv(qubits, config.readoutFeedCapacity);
    counts.readoutDacs = ceilDiv(qubits, kReadoutDacCapacity);
    counts.demuxSelectLines = z_plan.selectLineCount();
    counts.demux12 = z_plan.groupCountWithFanout(2);
    counts.demux14 = z_plan.groupCountWithFanout(4);
    return counts;
}

WiringCounts
multiplexedWiringCountsAnalytic(std::size_t qubits, std::size_t couplers,
                                std::size_t fdm_capacity,
                                std::size_t high_parallelism_count,
                                const CostModelConfig &config)
{
    requireConfig(qubits > 0, "chip has no qubits");
    requireConfig(fdm_capacity >= 1, "FDM capacity must be positive");
    const std::size_t devices = qubits + couplers;
    requireConfig(high_parallelism_count <= devices,
                  "more high-parallelism devices than devices");
    WiringCounts counts;
    counts.xyLines = ceilDiv(qubits, fdm_capacity);
    counts.demux12 = ceilDiv(high_parallelism_count, 2);
    counts.demux14 = ceilDiv(devices - high_parallelism_count, 4);
    counts.zLines = counts.demux12 + counts.demux14;
    counts.demuxSelectLines = counts.demux12 + 2 * counts.demux14;
    counts.readoutFeeds = ceilDiv(qubits, config.readoutFeedCapacity);
    counts.readoutDacs = ceilDiv(qubits, kReadoutDacCapacity);
    return counts;
}

} // namespace youtiao
