/**
 * @file
 * Plain-text chip description format.
 *
 * Lets users bring their own chip to the designer (youtiao_cli --chip):
 *
 *     youtiao-chip 1
 *     name my chip
 *     qubit <x mm> <y mm> [frequency GHz] [T1 ns]
 *     ...
 *     coupler <qubit a> <qubit b>
 *     ...
 *
 * Lines starting with '#' are comments. Qubits are numbered in file
 * order starting at 0.
 */

#ifndef YOUTIAO_CHIP_CHIP_IO_HPP
#define YOUTIAO_CHIP_CHIP_IO_HPP

#include <iosfwd>
#include <string>

#include "chip/topology.hpp"

namespace youtiao {

/** Current chip format version. */
inline constexpr int kChipFormatVersion = 1;

/** Write @p chip to @p out in the format above. */
void saveChip(std::ostream &out, const ChipTopology &chip);

/** Render to a string. */
std::string chipToString(const ChipTopology &chip);

/** Parse a chip; throws ConfigError on malformed input. */
ChipTopology loadChip(std::istream &in);

} // namespace youtiao

#endif // YOUTIAO_CHIP_CHIP_IO_HPP
