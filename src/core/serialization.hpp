/**
 * @file
 * Plain-text serialization of wiring designs.
 *
 * A finished design is a fabrication artefact: it must survive the
 * session that computed it. The format is a line-oriented key/value
 * listing (versioned, self-describing, diff-friendly) covering the FDM
 * plan, frequency allocation, TDM plan, readout plan and the resource
 * tally. Loading reconstructs a YoutiaoDesign sufficient for scheduling,
 * fidelity estimation and routing (the fitted models themselves are not
 * persisted; predictions are).
 */

#ifndef YOUTIAO_CORE_SERIALIZATION_HPP
#define YOUTIAO_CORE_SERIALIZATION_HPP

#include <iosfwd>
#include <string>

#include "core/hierarchical.hpp"
#include "core/youtiao.hpp"

namespace youtiao {

/** Current format version. */
inline constexpr int kDesignFormatVersion = 1;

/** Current tile-map format version. */
inline constexpr int kTileMapFormatVersion = 1;

/** Write @p design to @p out. Runs validateDesign first, so a design
 *  the loader would reject throws ConfigError before a byte is
 *  written. */
void saveDesign(std::ostream &out, const YoutiaoDesign &design);

/** Render to a string (convenience for tests and tools). */
std::string designToString(const YoutiaoDesign &design);

/**
 * Parse a design previously written by saveDesign. Throws ConfigError on
 * malformed input, version mismatch, or internally inconsistent plans.
 * The crosstalk-model objects are left untrained; the predicted matrices
 * are restored.
 */
YoutiaoDesign loadDesign(std::istream &in);

/** Parse from a string. */
YoutiaoDesign designFromString(const std::string &text);

/**
 * Structural consistency checks every writer runs before writing and
 * every loader runs before handing a design to callers: per-qubit
 * sections must agree on the qubit count and every per-qubit/per-device
 * map must match its group list, so nothing writes a file the loaders
 * reject and a corrupt file (text or binary) cannot load
 * "successfully". Throws ConfigError on the first violation.
 */
void validateDesign(const YoutiaoDesign &design);

/**
 * Write @p map (a hierarchical tile assignment, see hierarchical.hpp) in
 * the same line-oriented key/value format as designs: lattice shape, cut
 * coordinates, then the per-qubit tile assignment.
 */
void saveTileMap(std::ostream &out, const TileMap &map);

/** Render to a string (convenience for tests and tools). */
std::string tileMapToString(const TileMap &map);

/**
 * Parse a tile map previously written by saveTileMap. Throws ConfigError
 * on malformed input -- truncated or garbled files fail the same token
 * budgets as designs and never turn a corrupt count into a huge
 * allocation. The result satisfies validateTileMap.
 */
TileMap loadTileMap(std::istream &in);

/** Parse from a string. */
TileMap tileMapFromString(const std::string &text);

} // namespace youtiao

#endif // YOUTIAO_CORE_SERIALIZATION_HPP
