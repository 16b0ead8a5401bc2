/**
 * @file
 * Cryostat-level wiring counts and dollar costs.
 *
 * Count model (validated against the paper's own Tables 1 and 2):
 *
 *   Google-style dedicated wiring of Q qubits and C couplers:
 *     #XY = Q,  #Z = Q + C,  readout feeds = ceil(Q/8),
 *     readout DACs = ceil(Q/4),
 *     #DAC = #XY + #Z + readout DACs,
 *     #interfaces = coax = #XY + #Z + readout feeds.
 *
 *   YOUTIAO:
 *     #XY = FDM lines, #Z = TDM lines, plus DEMUX select lines carried on
 *     cheap twisted pair (2 per 1:4 switch, 1 per 1:2); select channels
 *     count as DACs and chip interfaces but not as coax.
 *
 * Dollar model, back-solved from the paper's cost columns (reproduces all
 * twenty cost cells within ~1%): coax $3,000; RF DAC channel $3,640;
 * twisted-pair select line + digital IO $200.
 */

#ifndef YOUTIAO_COST_COST_MODEL_HPP
#define YOUTIAO_COST_COST_MODEL_HPP

#include <cstddef>

#include "multiplex/fdm.hpp"
#include "multiplex/tdm.hpp"

namespace youtiao {

/** Readout multiplexing capacity (the prices above are fixed). */
struct CostModelConfig
{
    /** Qubits per readout feedline (FDM). */
    std::size_t readoutFeedCapacity = 8;
};

/** Physical resource tally of one wiring plan. */
struct WiringCounts
{
    std::size_t xyLines = 0;
    std::size_t zLines = 0;
    std::size_t readoutFeeds = 0;
    std::size_t readoutDacs = 0;
    std::size_t demuxSelectLines = 0;
    std::size_t demux12 = 0;
    std::size_t demux14 = 0;

    /** Coax entering the cryostat: XY + Z + readout feeds. */
    std::size_t coax() const { return xyLines + zLines + readoutFeeds; }

    /** RF DAC channels driving the analog lines. */
    std::size_t rfDacs() const
    {
        return xyLines + zLines + readoutDacs;
    }

    /** All DAC/DIO channels: analog plus DEMUX digital selects. */
    std::size_t dacs() const { return rfDacs() + demuxSelectLines; }

    /** Chip interfaces: every analog line + every select line. */
    std::size_t interfaces() const
    {
        return coax() + demuxSelectLines;
    }
};

/** Dollar cost of a tally. */
double wiringCostUsd(const WiringCounts &counts);

/** Dedicated (Google-style) wiring for Q qubits and C couplers. */
WiringCounts dedicatedWiringCounts(std::size_t qubits, std::size_t couplers,
                                   const CostModelConfig &config = {});

/** Counts for a concrete YOUTIAO plan pair. */
WiringCounts multiplexedWiringCounts(std::size_t qubits,
                                     const FdmPlan &xy_plan,
                                     const TdmPlan &z_plan,
                                     const CostModelConfig &config = {});

/**
 * Analytic YOUTIAO estimate for large systems: Q qubits and C couplers,
 * XY FDM at @p fdm_capacity, and Z devices split so that
 * @p high_parallelism_count of them use 1:2 DEMUXes (rest 1:4), assuming
 * full DEMUX packing.
 */
WiringCounts multiplexedWiringCountsAnalytic(
    std::size_t qubits, std::size_t couplers, std::size_t fdm_capacity,
    std::size_t high_parallelism_count, const CostModelConfig &config = {});

} // namespace youtiao

#endif // YOUTIAO_COST_COST_MODEL_HPP
