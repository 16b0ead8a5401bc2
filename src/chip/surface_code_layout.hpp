/**
 * @file
 * Rotated surface-code chip layouts for the fault-tolerant case study
 * (paper Section 5.2, Table 1).
 *
 * A distance-d rotated surface code uses d^2 data qubits and d^2 - 1
 * parity-check (measure) qubits, connected through 4d(d-1) tunable
 * couplers. Google's architecture wires every qubit with dedicated XY and Z
 * lines; YOUTIAO drives the parity-check qubits' parallel gates over FDM XY
 * lines and the data-qubit/coupler Z pulses over TDM lines.
 */

#ifndef YOUTIAO_CHIP_SURFACE_CODE_LAYOUT_HPP
#define YOUTIAO_CHIP_SURFACE_CODE_LAYOUT_HPP

#include <cstddef>
#include <vector>

#include "chip/topology.hpp"

namespace youtiao {

/** Role of a qubit inside the surface code. */
enum class SurfaceCodeRole { Data, MeasureX, MeasureZ };

/** A distance-d rotated surface-code patch realized as a chip. */
struct SurfaceCodeLayout
{
    /** Code distance (odd, >= 3). */
    std::size_t distance = 3;
    /** The chip: data qubits first, then measure qubits. */
    ChipTopology chip;
    /** Role per qubit index. */
    std::vector<SurfaceCodeRole> roles;

    std::size_t dataQubitCount() const { return distance * distance; }
    std::size_t measureQubitCount() const
    {
        return distance * distance - 1;
    }
};

/**
 * Build the distance-d rotated surface-code layout. Throws ConfigError for
 * even or < 3 distances.
 *
 * Geometry: data qubits at even-even plane coordinates; interior measure
 * qubits at the centres of the (d-1)^2 plaquettes, checkerboarded X/Z;
 * 2(d-1) boundary measure qubits on alternating half-plaquettes. Each
 * measure qubit couples to its 2 (boundary) or 4 (interior) adjacent data
 * qubits.
 */
SurfaceCodeLayout makeSurfaceCodeLayout(std::size_t distance,
                                        double pitch_mm = 1.6);

} // namespace youtiao

#endif // YOUTIAO_CHIP_SURFACE_CODE_LAYOUT_HPP
