/**
 * @file
 * Readout-plane multiplexing (paper Section 2.2).
 *
 * Dispersive readout couples each qubit to a resonator; resonators of one
 * feedline are frequency-multiplexed without per-channel filters, so the
 * probe tones must be spaced widely enough that inter-channel crosstalk
 * (resonance broadening from detection-efficiency-mismatch imperfections)
 * stays below -30 dB. Qubits are grouped onto feedlines by the FDM
 * grouping (multiplex/fdm.hpp); this module allocates resonator
 * frequencies in the readout band. The isolation rule and the
 * single-shot fidelity estimate (paper baseline: 99.0%) are checked by
 * tests/oracles/checks.hpp.
 */

#ifndef YOUTIAO_MULTIPLEX_READOUT_HPP
#define YOUTIAO_MULTIPLEX_READOUT_HPP

#include <vector>

#include "multiplex/fdm.hpp"

namespace youtiao {

/** Resonator probe tones of a chip's readout feedlines. */
struct ReadoutPlan
{
    /** Resonator probe frequency per qubit (GHz). */
    std::vector<double> resonatorGHz;
};

/**
 * Spread resonator frequencies evenly within each line of @p feedlines
 * across the 7.0-8.5 GHz readout band, above the qubit band. The
 * feedlines are an FDM grouping (groupFdm over the equivalent-distance
 * matrix at the feedline capacity; the paper cites up to 8 [13]), so a
 * grouping lifted to other qubit indices keeps its tones.
 */
ReadoutPlan planReadout(const FdmPlan &feedlines);

} // namespace youtiao

#endif // YOUTIAO_MULTIPLEX_READOUT_HPP
