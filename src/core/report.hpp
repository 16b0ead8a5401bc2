/**
 * @file
 * Human-readable wiring reports.
 *
 * Formats a finished YoutiaoDesign as text: resource summary, per-line
 * group listings, and an ASCII chip map showing which FDM line each qubit
 * rides (the fastest way to eyeball a grouping).
 */

#ifndef YOUTIAO_CORE_REPORT_HPP
#define YOUTIAO_CORE_REPORT_HPP

#include <string>

#include "core/baselines.hpp"
#include "core/hierarchical.hpp"
#include "core/youtiao.hpp"

namespace youtiao {

/**
 * ASCII map of the chip: one letter per qubit at its (coarsened) physical
 * position, 'A' + (assignment % 26); '.' marks empty plane. @p assignment
 * must give a value per qubit (e.g. FdmPlan::lineOfQubit or
 * ChipPartition::regionOfQubit).
 */
std::string chipMap(const ChipTopology &chip,
                    const std::vector<std::size_t> &assignment);

/** Full multi-section report of a YOUTIAO design. */
std::string wiringReport(const ChipTopology &chip,
                         const YoutiaoDesign &design,
                         const YoutiaoConfig &config = {});


/** One-line cost comparison against a baseline design. */
std::string costComparison(const YoutiaoDesign &ours,
                           const BaselineDesign &baseline,
                           const std::string &baseline_name);

/**
 * Report of a hierarchical design: tile lattice, per-tile summary line,
 * seam-stitch diagnostics, and the merged cryostat bill. Large chips
 * skip the per-qubit listings of wiringReport -- at 10k qubits those
 * run to megabytes.
 */
std::string hierarchicalReport(const ChipTopology &chip,
                               const HierarchicalDesign &design,
                               const YoutiaoConfig &config = {});

} // namespace youtiao

#endif // YOUTIAO_CORE_REPORT_HPP
