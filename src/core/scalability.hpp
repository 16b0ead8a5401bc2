/**
 * @file
 * Large-scale system estimation (paper Section 5.6, Figure 17).
 *
 * For systems from tens to 100k qubits the full greedy grouping is
 * unnecessary: the DEMUX level mix follows directly from the parallelism
 * indices of the (cheaply computed) topology, and line counts follow from
 * full-packing arithmetic. The estimators here build the real grid
 * topology, classify devices by parallelism threshold, and tally coax and
 * cost for Google-style wiring, YOUTIAO, and IBM's chiplet scale-out.
 */

#ifndef YOUTIAO_CORE_SCALABILITY_HPP
#define YOUTIAO_CORE_SCALABILITY_HPP

#include <cstddef>
#include <vector>

#include "chip/topology.hpp"
#include "chip/topology_builder.hpp"
#include "core/config.hpp"
#include "core/hierarchical.hpp"

namespace youtiao {

/** One point of the scaling curves. */
struct ScalePoint
{
    std::size_t qubits = 0;
    std::size_t couplers = 0;
    /** Devices classified high-parallelism (1:2 DEMUX). */
    std::size_t highParallelismDevices = 0;
    std::size_t googleCoax = 0;
    std::size_t youtiaoCoax = 0;
    double googleCostUsd = 0.0;
    double youtiaoCostUsd = 0.0;

    double coaxReduction() const
    {
        return youtiaoCoax == 0 ? 0.0
                                : static_cast<double>(googleCoax) /
                                      static_cast<double>(youtiaoCoax);
    }
};

/**
 * Near-square grid with exactly @p qubits qubits (rows = floor(sqrt),
 * last row possibly partial), the topology of the paper's scaling study.
 */
ChipTopology makeGridWithQubitCount(std::size_t qubits);

/** Estimate one square-topology system of @p qubits qubits. */
ScalePoint estimateSquareSystem(std::size_t qubits,
                                const YoutiaoConfig &config = {});

/** IBM-chiplet comparison point (Figure 17 (c)). */
struct ChipletComparison
{
    std::size_t copies = 0;
    std::size_t qubitsPerChiplet = 0;
    std::size_t totalQubits = 0;
    /** Dedicated-wiring cables across all chiplets. */
    std::size_t ibmCoax = 0;
    /** YOUTIAO-multiplexed cables for the same chiplets. */
    std::size_t youtiaoCoax = 0;

    double cableReduction() const
    {
        return youtiaoCoax == 0 ? 0.0
                                : static_cast<double>(ibmCoax) /
                                      static_cast<double>(youtiaoCoax);
    }
};

/**
 * Compare dedicated vs YOUTIAO wiring over @p copies of a ~133-qubit
 * heavy-hexagon chiplet (a 4x5-cell heavy honeycomb, 135 qubits -- the
 * closest tiling to IBM's 133-qubit Heron).
 */
ChipletComparison compareIbmChiplet(std::size_t copies,
                                    const YoutiaoConfig &config = {});

/**
 * A concrete hierarchical design audited against the closed-form
 * estimate (Figure 17 scaling model). The analytic curve assumes every
 * FDM line is full and every DEMUX slot used; a stitched tiled design
 * fragments groups at tile boundaries, so its coax count sits above the
 * estimate by a bounded factor. The band is the scalability
 * cross-check: a merged design outside it means the stitch dropped or
 * duplicated lines.
 */
struct HierarchicalCrossCheck
{
    std::size_t actualCoax = 0;
    std::size_t analyticCoax = 0;
    /** actual / analytic. */
    double ratio = 0.0;
    double bandLo = 0.0;
    double bandHi = 0.0;
    bool withinBand = false;
};

/**
 * Cross-check @p design's merged wiring tally against the analytic
 * estimate for @p chip. Band defaults cover grid chips from one tile up
 * to ~200 tiles (fragmentation grows with the seam count but stays
 * well under the default ceiling; pinned by tests/test_hierarchical.cpp).
 */
HierarchicalCrossCheck
crossCheckHierarchicalCounts(const ChipTopology &chip,
                             const HierarchicalDesign &design,
                             const YoutiaoConfig &config = {},
                             double band_lo = 0.6, double band_hi = 1.7);

} // namespace youtiao

#endif // YOUTIAO_CORE_SCALABILITY_HPP
