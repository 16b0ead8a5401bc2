/**
 * @file
 * Generators for the chip families evaluated in the paper.
 *
 * Table 2 evaluates five topologies: square (9 qubits), hexagon (16),
 * heavy-square (21), heavy-hexagon (21) and low-density (18). The fidelity
 * experiments additionally use 6x6 and 8x8 square-grid Xmon chips, and the
 * scalability study uses large NxM grids. All generators place devices on a
 * physical plane (mm) and assign fabrication base frequencies with a
 * neighbour-detuned pattern, standing in for the paper's self-developed
 * chips.
 */

#ifndef YOUTIAO_CHIP_TOPOLOGY_BUILDER_HPP
#define YOUTIAO_CHIP_TOPOLOGY_BUILDER_HPP

#include <cstdint>

#include "chip/topology.hpp"
#include "common/prng.hpp"

namespace youtiao {

/** The five Table 2 chip families plus the generic grid. */
enum class TopologyFamily
{
    Square,
    Hexagon,
    HeavySquare,
    HeavyHexagon,
    LowDensity,
    SquareGrid,
};

/** Name string used in reports ("square", "heavy hexagon", ...). */
const char *topologyFamilyName(TopologyFamily family);

/** Qubit pitch (mm); Xmon transmons are ~0.65 mm wide. */
inline constexpr double kQubitPitchMm = 1.6;
/** Average relaxation time (ns); the paper's chips reach 90 us. */
inline constexpr double kQubitT1Ns = 90e3;
/** Seed of every generator's base-frequency jitter. */
inline constexpr std::uint64_t kBaseFrequencySeed = 20250501;

/** rows x cols square lattice with nearest-neighbour couplers. */
ChipTopology makeSquareGrid(std::size_t rows, std::size_t cols);

/** The paper's 3x3 square topology (9 qubits, 12 couplers). */
ChipTopology makeSquare();

/**
 * Honeycomb lattice of cell_rows x cell_cols hexagonal cells;
 * the default 2x2 yields the paper's 16-qubit / 19-coupler hexagon.
 */
ChipTopology makeHexagon(std::size_t cell_rows = 2,
                         std::size_t cell_cols = 2);

/**
 * Heavy-square: the 3x3 square lattice with one extra qubit inserted on
 * every coupling (21 qubits, 24 couplers).
 */
ChipTopology makeHeavySquare();

/**
 * Heavy-hexagon: a 1x2 honeycomb with a qubit on every edge
 * (21 qubits, 22 couplers), IBM style.
 */
ChipTopology makeHeavyHexagon();

/**
 * Low-density arrangement (18 qubits, 18 couplers): six 3-qubit columns
 * joined along the top row, one redundant bottom link. Average degree 2,
 * matching the sparse layout the paper reports multiplexes best.
 */
ChipTopology makeLowDensity();

/** Dispatch by family; grid dimensions only apply to SquareGrid. */
ChipTopology makeTopology(TopologyFamily family,
                          std::size_t rows = 6, std::size_t cols = 6);

/**
 * Insert an extra qubit in the middle of every coupling of @p base,
 * producing the "heavy" variant of any topology.
 */
ChipTopology makeHeavy(const ChipTopology &base);

/**
 * Assign fabrication base frequencies: greedy-color the coupling graph so
 * neighbours land in different bands of [4, 7] GHz, with +/-30 MHz jitter.
 * Called by every generator; exposed for custom chips.
 */
void assignPatternFrequencies(ChipTopology &chip, Prng &prng);

} // namespace youtiao

#endif // YOUTIAO_CHIP_TOPOLOGY_BUILDER_HPP
