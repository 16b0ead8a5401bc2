/**
 * @file
 * Property checkers and reference values (test oracles).
 *
 * Each function here judges an output of the system -- a circuit, a
 * coloring, a partition, a hop schedule, a readout plan -- or states a
 * reference value the paper gives. No system binary calls them; tests
 * compare what the system produces against them.
 */

#ifndef YOUTIAO_TESTS_ORACLES_CHECKS_HPP
#define YOUTIAO_TESTS_ORACLES_CHECKS_HPP

#include <cstddef>
#include <vector>

#include "chip/topology.hpp"
#include "circuit/circuit.hpp"
#include "graph/graph.hpp"
#include "multiplex/fhss.hpp"
#include "multiplex/readout.hpp"
#include "partition/generative_partition.hpp"

namespace youtiao {

// -- circuits --------------------------------------------------------------

/** True for kinds in the device's native basis. */
constexpr bool
isBasisGate(GateKind kind)
{
    return kind == GateKind::RX || kind == GateKind::RY ||
           kind == GateKind::RZ || kind == GateKind::CZ ||
           kind == GateKind::Measure || kind == GateKind::Barrier;
}

/** True when every gate of @p qc is in the native basis. */
bool isBasisOnly(const QuantumCircuit &qc);

/**
 * The inverse circuit: gates reversed, rotation angles negated (H, X, CZ,
 * CNOT, SWAP are self-inverse), named "<name>^-1". Throws ConfigError if
 * the circuit contains measurements (not invertible).
 */
QuantumCircuit inverse(const QuantumCircuit &qc);

// -- graphs ----------------------------------------------------------------

/** True when no edge of @p conflict joins two same-colored vertices. */
bool isProperColoring(const Graph &conflict,
                      const std::vector<std::size_t> &colors);

/** Number of distinct colors in an assignment (uncolored entries,
 *  size_t(-1), are skipped). */
std::size_t colorCount(const std::vector<std::size_t> &colors);

/** Connected-component label per vertex (labels are 0-based). */
std::vector<std::size_t> connectedComponents(const Graph &g);

/** True when every vertex is reachable from vertex 0 (or empty). */
bool isConnected(const Graph &g);

// -- partition -------------------------------------------------------------

/**
 * DRC of stage 4: every qubit assigned to exactly one region and every
 * region induces a connected subgraph of the coupling map.
 */
bool partitionPassesDrc(const ChipTopology &chip,
                        const ChipPartition &partition);

// -- frequency hopping -----------------------------------------------------

/**
 * True when every member of @p g visits every channel exactly once per
 * block of its period and each block head is the identity rotation
 * (the uniform-occupancy / sync-slot contract).
 */
bool hasUniformOccupancy(const GroupHopSchedule &g);

/** Longest group period (single-member groups never hop). */
std::size_t maxPeriodLength(const HopPlan &plan);

// -- readout ---------------------------------------------------------------

/** Resonator physics the readout checks read; planReadout reads none. */
struct ReadoutPhysics
{
    /** Resonator linewidth kappa (GHz); sets channel bleed-through. */
    double resonatorLinewidthGHz = 0.002;
    /** Required inter-channel isolation (dB, positive number). */
    double isolationDb = 30.0;
    /** Single-shot assignment error with perfect isolation. */
    double intrinsicAssignmentError = 8e-3;
};

/**
 * Worst inter-channel crosstalk on any of @p feedlines with resonator
 * tones @p tones, in dB (more negative is better): the Lorentzian
 * bleed-through of the closest same-line pair.
 */
double worstChannelCrosstalkDb(const FdmPlan &feedlines,
                               const ReadoutPlan &tones,
                               const ReadoutPhysics &physics = {});

/** True when every same-feedline pair meets the isolation requirement. */
bool meetsIsolation(const FdmPlan &feedlines, const ReadoutPlan &tones,
                    const ReadoutPhysics &physics = {});

/**
 * Estimated single-shot readout fidelity per qubit: the intrinsic
 * assignment error plus bleed-through from every same-line channel.
 */
std::vector<double> singleShotFidelities(const FdmPlan &feedlines,
                                         const ReadoutPlan &tones,
                                         const ReadoutPhysics &physics = {});

// -- surface code ----------------------------------------------------------

/**
 * Number of two-qubit-gate layers in one error-correction cycle when every
 * stabilizer runs its four (or two) CZs in the standard 4-step dance with
 * no wiring constraints: always 4.
 */
constexpr std::size_t
idealCzLayersPerCycle()
{
    return 4;
}

} // namespace youtiao

#endif // YOUTIAO_TESTS_ORACLES_CHECKS_HPP
