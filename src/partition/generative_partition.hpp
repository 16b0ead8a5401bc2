/**
 * @file
 * Generative chip partition (paper Section 4.4).
 *
 * Whole-chip TDM grouping over n devices into k groups is O(n^k) in the
 * worst case, so large chips are first cut into multiplexing regions:
 *
 *   stage 1  randomly seed k regions and expand each by absorbing the
 *            unassigned qubit with the lowest equivalent distance;
 *   stage 2  swap qubits at region borders to the seed they are actually
 *            closest to, escaping local optima;
 *   stage 3  run the (greedy, therefore pipelinable) FDM/TDM grouping per
 *            region while expansion continues;
 *   stage 4  stop when no swaps remain and the partition passes the
 *            design-rule check (all qubits assigned, regions connected).
 */

#ifndef YOUTIAO_PARTITION_GENERATIVE_PARTITION_HPP
#define YOUTIAO_PARTITION_GENERATIVE_PARTITION_HPP

#include <cstddef>
#include <vector>

#include "chip/topology.hpp"
#include "common/matrix.hpp"
#include "common/prng.hpp"
#include "multiplex/fdm.hpp"
#include "multiplex/tdm.hpp"

namespace youtiao {

/** Partitioning knobs. */
struct PartitionConfig
{
    /** Number of regions (seeds). 0 picks ~sqrt(Q/8)+1 automatically. */
    std::size_t regionCount = 0;
};

/** A region decomposition of the chip's qubits. */
struct ChipPartition
{
    /** Qubit indices per region. */
    std::vector<std::vector<std::size_t>> regions;
    /** Region id per qubit. */
    std::vector<std::size_t> regionOfQubit;
    /** Seed qubit per region. */
    std::vector<std::size_t> seeds;
    /** Border swaps performed in stage 2. */
    std::size_t swapCount = 0;

    std::size_t regionCount() const { return regions.size(); }
};

/**
 * Run stages 1-2 (+DRC of stage 4): seed, expand, border-swap.
 * Deterministic given @p prng.
 */
ChipPartition generativePartition(const ChipTopology &chip,
                                  const SymmetricMatrix &d_equiv,
                                  const PartitionConfig &config,
                                  Prng &prng);

/**
 * Baseline for the ablation: geometric slabs (qubits cut into
 * @p region_count vertical strips by x coordinate), the "traditional
 * clustering based on chip layout" the paper says ignores crosstalk.
 */
ChipPartition geometricPartition(const ChipTopology &chip,
                                 std::size_t region_count);

/** Mean intra-region pairwise equivalent distance (lower = tighter). */
double meanIntraRegionDistance(const ChipPartition &partition,
                               const SymmetricMatrix &d_equiv);

/**
 * Stage 3: run YOUTIAO's greedy FDM grouping independently inside every
 * region (regions are pipelinable; results are concatenated into one
 * chip-wide plan).
 */
FdmPlan groupFdmPartitioned(const ChipPartition &partition,
                            const SymmetricMatrix &d_equiv,
                            const FdmGroupingConfig &config = {});

/**
 * Stage 3 for the Z plane: noise-aware TDM grouping per region. Couplers
 * straddling a region border belong to their first endpoint's region.
 */
TdmPlan groupTdmPartitioned(const ChipTopology &chip,
                            const ChipPartition &partition,
                            const SymmetricMatrix &zz_qubit,
                            const TdmGroupingConfig &config = {});

} // namespace youtiao

#endif // YOUTIAO_PARTITION_GENERATIVE_PARTITION_HPP
