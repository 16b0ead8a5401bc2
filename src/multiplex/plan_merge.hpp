/**
 * @file
 * Merging per-tile multiplexing plans into one chip-wide plan.
 *
 * The hierarchical designer solves each tile independently, producing
 * plans over *local* qubit/device indices. This module lifts them back to
 * global indices and concatenates: line and group ids are offset per
 * tile, per-qubit lookup vectors are scattered through the tile's
 * local-to-global maps. Couplers that cross a tile seam belong to no
 * tile; packSeamCouplerGroups puts them on their own TDM groups, which
 * are always gate-realizable because no two couplers ever share a gate
 * triple {q_a, c, q_b} and their endpoint qubits live in (distinct)
 * tile-owned groups.
 */

#ifndef YOUTIAO_MULTIPLEX_PLAN_MERGE_HPP
#define YOUTIAO_MULTIPLEX_PLAN_MERGE_HPP

#include <cstddef>
#include <vector>

#include "chip/topology.hpp"
#include "multiplex/fdm.hpp"
#include "multiplex/frequency_allocation.hpp"
#include "multiplex/tdm.hpp"

namespace youtiao {

/** Borrowed views of one tile's plans and its local-to-global maps. */
struct TilePlanRefs
{
    /** Local qubit index -> global qubit index (ascending). */
    const std::vector<std::size_t> *qubitMap = nullptr;
    /** Local coupler index -> global coupler index (ascending). */
    const std::vector<std::size_t> *couplerMap = nullptr;
    const FdmPlan *xy = nullptr;
    const FrequencyPlan *frequency = nullptr;
    const TdmPlan *z = nullptr;
    const FdmPlan *readoutLines = nullptr;
};

/**
 * Concatenate the per-tile FDM groupings @p plan selects (&TilePlanRefs::xy
 * for XY lines, &TilePlanRefs::readoutLines for readout feedlines) over
 * @p qubit_count qubits. Each line keeps its member order, so
 * planReadout() gives the merged feedlines the tiles' resonator tones.
 */
FdmPlan mergeFdmPlans(std::size_t qubit_count,
                      const std::vector<TilePlanRefs> &tiles,
                      const FdmPlan *TilePlanRefs::*plan);

/**
 * Concatenate per-tile frequency allocations. zoneCount is the maximum
 * over tiles (each tile banded its own spectrum); crosstalkCost is the
 * sum of tile objectives -- cross-seam pairs are invisible to the tiles
 * and are accounted for by the hierarchical designer's seam stitch.
 */
FrequencyPlan mergeFrequencyPlans(std::size_t qubit_count,
                                  const std::vector<TilePlanRefs> &tiles);

/**
 * Concatenate per-tile TDM plans over the global device space
 * (@p qubit_count qubits then @p coupler_count couplers). Local device
 * ids are remapped through the tile's qubit and coupler maps. Seam
 * couplers are absent here; append packSeamCouplerGroups' output.
 */
TdmPlan mergeTdmPlans(std::size_t qubit_count, std::size_t coupler_count,
                      const std::vector<TilePlanRefs> &tiles);

/**
 * Pack seam-crossing couplers onto their own TDM groups, split by
 * parallelism index at @p config's threshold exactly like the in-tile
 * grouping: low-parallelism couplers fill 1:kLowParallelismFanout
 * DEMUXes, high-parallelism ones 1:kHighParallelismFanout, both in
 * ascending coupler order (deterministic). @p seam_couplers holds global
 * coupler indices; @p parallelism_index is indexed by global device id.
 */
std::vector<TdmGroup> packSeamCouplerGroups(
    const ChipTopology &chip, const std::vector<std::size_t> &seam_couplers,
    const std::vector<double> &parallelism_index,
    const TdmGroupingConfig &config);

/** Append @p groups to @p plan, maintaining groupOfDevice. */
void appendTdmGroups(TdmPlan &plan, std::vector<TdmGroup> groups);

} // namespace youtiao

#endif // YOUTIAO_MULTIPLEX_PLAN_MERGE_HPP
