/**
 * @file
 * Zero-copy binary design format (magic "YTDSGBIN", schema
 * youtiao-designbin-1; see docs/FILE_FORMATS.md).
 *
 * The text format (serialization.hpp) remains the diff-friendly
 * interchange v0; this is the bulk format for archiving large finished
 * designs. Group lists (XY lines, TDM groups, readout feedlines) are
 * stored CSR-style as an offsets array plus a flattened member array;
 * per-qubit maps and frequencies are plain u64/f64 arrays; the two
 * predicted symmetric matrices are their packed upper triangles. A
 * loaded design passes the exact same validateDesign checks as a
 * text-loaded one and reconstructs bit-identical doubles (payloads are
 * raw IEEE-754, no decimal round-trip).
 *
 * Versioned like the chip binary: readers accept schemas up to
 * kDesignBinVersion, migrating older payloads forward through
 * per-version shims; future versions raise ConfigError.
 */

#ifndef YOUTIAO_CORE_DESIGN_BIN_HPP
#define YOUTIAO_CORE_DESIGN_BIN_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "core/youtiao.hpp"

namespace youtiao {

/** 8-character magic opening every binary design file. */
inline constexpr char kDesignBinMagic[] = "YTDSGBIN";

/** Current binary design schema version (youtiao-designbin-1). */
inline constexpr std::uint32_t kDesignBinVersion = 1;

/** Render @p design as a complete binary file image. Runs
 *  validateDesign first (ConfigError), like the text writer. */
std::vector<unsigned char> designToBinary(const YoutiaoDesign &design);

/** Parse a binary design file image. Throws ConfigError on anything
 *  malformed; the result satisfies validateDesign. The crosstalk-model
 *  objects are left untrained, matching the text loader. */
YoutiaoDesign designFromBinary(const unsigned char *data,
                               std::size_t size);

/** mmap and parse the binary design file at @p path. */
YoutiaoDesign loadDesignBinary(const std::string &path);

} // namespace youtiao

#endif // YOUTIAO_CORE_DESIGN_BIN_HPP
