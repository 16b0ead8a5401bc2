/**
 * @file
 * Retired library functions, kept only with their own tests.
 *
 * No system binary reaches these and no test uses them as a reference:
 * each is the subject of its own tests. They left src/ so the library
 * holds what the system runs; deleting each one together with its tests
 * is an open ROADMAP item.
 */

#ifndef YOUTIAO_TESTS_ORACLES_RETIRED_HPP
#define YOUTIAO_TESTS_ORACLES_RETIRED_HPP

#include <cstddef>
#include <string>
#include <vector>

#include "chip/topology.hpp"
#include "circuit/circuit.hpp"
#include "circuit/scheduler.hpp"
#include "multiplex/tdm.hpp"
#include "sim/pulse.hpp"

namespace youtiao {

// -- schedules and pulses --------------------------------------------------

/**
 * Wall-clock duration of a TDM schedule including cryo-DEMUX channel
 * switching: every layer boundary where some DEMUX must retarget costs
 * @p switch_ns (Acharya et al.: 2.6 ns) on top of the gate time.
 */
double tdmDurationNs(const QuantumCircuit &qc, const Schedule &schedule,
                     const ChipTopology &chip, const TdmPlan &plan,
                     const GateDurations &durations = {},
                     double switch_ns = 2.6);

/**
 * ASCII gantt of a schedule: one row per qubit, one column per layer
 * ('.' idle, '1' one-qubit gate, '=' two-qubit gate, 'M' readout),
 * truncated at @p max_layers columns.
 */
std::string renderSchedule(const QuantumCircuit &qc,
                           const Schedule &schedule,
                           std::size_t max_layers = 72);

/**
 * Excitation profile over @p samples detunings in [lo, hi] GHz
 * (inclusive endpoints).
 */
std::vector<double> excitationProfile(double lo_ghz, double hi_ghz,
                                      std::size_t samples,
                                      const PulseConfig &config = {});

} // namespace youtiao

#endif // YOUTIAO_TESTS_ORACLES_RETIRED_HPP
