/**
 * @file
 * FDM qubit grouping (paper Section 4.2, "noise-aware qubit grouping").
 *
 * Qubits sharing one FDM XY line must sit far apart in frequency; qubits
 * that are physically/topologically close are naturally fabricated with
 * separated frequencies, so the greedy rule is: grow each line's group by
 * repeatedly adding the ungrouped qubit with the smallest equivalent
 * distance to any current member.
 */

#ifndef YOUTIAO_MULTIPLEX_FDM_HPP
#define YOUTIAO_MULTIPLEX_FDM_HPP

#include <cstddef>
#include <vector>

#include "chip/topology.hpp"
#include "common/matrix.hpp"

namespace youtiao {

/** FDM grouping knobs. */
struct FdmGroupingConfig
{
    /** Qubits per FDM line (the paper evaluates capacity 5; readout 8). */
    std::size_t lineCapacity = 5;
};

/** Assignment of qubits to shared FDM lines. */
struct FdmPlan
{
    /** Qubit indices per line. */
    std::vector<std::vector<std::size_t>> lines;
    /** Line id per qubit. */
    std::vector<std::size_t> lineOfQubit;

    std::size_t lineCount() const { return lines.size(); }

    /** Largest group size (= number of frequency zones needed). */
    std::size_t maxGroupSize() const;
};

/**
 * YOUTIAO's greedy nearest-equivalent-distance grouping over @p d_equiv
 * (a qubit-level equivalent-distance matrix); qubit 0 seeds the first
 * group.
 */
FdmPlan groupFdm(const SymmetricMatrix &d_equiv,
                 const FdmGroupingConfig &config = {});

/**
 * Baseline grouping by chip-local clustering: qubits are packed into lines
 * in qubit-index order (row-major locality on grid chips), the
 * "unoptimized FDM with chip-local clustering" the paper compares against.
 */
FdmPlan groupFdmLocalCluster(const ChipTopology &chip,
                             std::size_t line_capacity);

/** Sum over lines of the mean intra-group equivalent distance
 *  (diagnostic: lower = tighter, better-separated-by-design groups). */
double meanIntraGroupDistance(const FdmPlan &plan,
                              const SymmetricMatrix &d_equiv);

} // namespace youtiao

#endif // YOUTIAO_MULTIPLEX_FDM_HPP
