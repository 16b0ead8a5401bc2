/**
 * @file
 * Readout-plane multiplexing (paper Section 2.2).
 *
 * Dispersive readout couples each qubit to a resonator; resonators of one
 * feedline are frequency-multiplexed without per-channel filters, so the
 * probe tones must be spaced widely enough that inter-channel crosstalk
 * (resonance broadening from detection-efficiency-mismatch imperfections)
 * stays below -30 dB. This module groups qubits onto feedlines and
 * allocates resonator frequencies in the readout band; the isolation
 * rule and the single-shot fidelity estimate (paper baseline: 99.0%)
 * are checked by tests/oracles/checks.hpp.
 */

#ifndef YOUTIAO_MULTIPLEX_READOUT_HPP
#define YOUTIAO_MULTIPLEX_READOUT_HPP

#include <cstddef>
#include <vector>

#include "chip/topology.hpp"
#include "common/matrix.hpp"
#include "multiplex/fdm.hpp"

namespace youtiao {

/** A readout feedline: member qubits and their resonator frequencies. */
struct ReadoutPlan
{
    /** Qubits per feedline. */
    std::vector<std::vector<std::size_t>> feedlines;
    /** Feedline id per qubit. */
    std::vector<std::size_t> feedlineOfQubit;
    /** Resonator probe frequency per qubit (GHz). */
    std::vector<double> resonatorGHz;

    std::size_t feedlineCount() const { return feedlines.size(); }
};

/**
 * Group qubits onto feedlines of at most @p feedline_capacity qubits
 * (the paper cites up to 8 [13]; reusing the FDM grouping plan
 * structure over the equivalent-distance matrix @p d_equiv) and spread
 * resonator frequencies evenly within each feedline across the
 * 7.0-8.5 GHz readout band, above the qubit band.
 */
ReadoutPlan planReadout(const SymmetricMatrix &d_equiv,
                        std::size_t feedline_capacity);

} // namespace youtiao

#endif // YOUTIAO_MULTIPLEX_READOUT_HPP
