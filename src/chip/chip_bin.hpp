/**
 * @file
 * Zero-copy binary chip format (magic "YTCHPBIN", schema
 * youtiao-chipbin-1; see docs/FILE_FORMATS.md).
 *
 * The text format (chip_io.hpp) stays the human-readable interchange
 * v0; this is the bulk format for large chips, where text parsing
 * dominates load time. The payload is the chip SoA: per-qubit x / y /
 * frequency / T1 as f64 arrays, coupler endpoints as u32 arrays and
 * coupler positions as f64 arrays, plus the chip name as raw bytes.
 * Reading mmaps the file, validates the section table, and rebuilds
 * the ChipTopology straight from the mapped arrays -- no tokenizing,
 * no per-line allocation.
 *
 * Versioning follows the text formats: the reader accepts schema
 * versions up to kChipBinVersion and migrates older payloads forward
 * through per-version shims, so bumping the version never strands a
 * committed chip file; future versions are refused with ConfigError.
 */

#ifndef YOUTIAO_CHIP_CHIP_BIN_HPP
#define YOUTIAO_CHIP_CHIP_BIN_HPP

#include <cstdint>
#include <string>

#include "chip/topology.hpp"

namespace youtiao {

/** 8-character magic opening every binary chip file. */
inline constexpr char kChipBinMagic[] = "YTCHPBIN";

/** Current binary chip schema version (youtiao-chipbin-1). */
inline constexpr std::uint32_t kChipBinVersion = 1;

/** Render @p chip as a complete binary file image. */
std::vector<unsigned char> chipToBinary(const ChipTopology &chip);

/** Write @p chip to @p path in the binary format, atomically
 *  (io::atomicWriteFile: a reader that has the old file mapped keeps a
 *  valid mapping). Throws ConfigError when the file cannot be written. */
void saveChipBinary(const std::string &path, const ChipTopology &chip);

/** Parse a binary chip file image. Throws ConfigError on anything
 *  malformed: wrong magic, future version, truncation, sections that
 *  disagree on the qubit count, out-of-range coupler endpoints. */
ChipTopology chipFromBinary(const unsigned char *data, std::size_t size);

/** mmap and parse the binary chip file at @p path. */
ChipTopology loadChipBinary(const std::string &path);

/**
 * Load a chip from @p path in whichever format it is: binary files are
 * recognized by their magic, anything else goes through the text
 * parser. Throws ConfigError when neither accepts the file.
 */
ChipTopology loadChipAuto(const std::string &path);

} // namespace youtiao

#endif // YOUTIAO_CHIP_CHIP_BIN_HPP
