/**
 * @file
 * TDM qubit/coupler grouping (paper Section 4.3).
 *
 * Devices wired behind one cryo-DEMUX share a Z line and can only be
 * driven one at a time, so grouping must (a) never make a two-qubit gate
 * unrealizable -- the three devices of a gate q_a - c - q_b must sit in
 * three different groups -- and (b) prefer devices whose gates can never
 * (topological non-parallelism) or should never (noisy non-parallelism)
 * execute simultaneously, so the serialization costs no extra depth.
 *
 * Devices are split by parallelism index at threshold theta: low-index
 * devices multiplex deep (1:4), high-index devices shallow (1:2).
 */

#ifndef YOUTIAO_MULTIPLEX_TDM_HPP
#define YOUTIAO_MULTIPLEX_TDM_HPP

#include <cstddef>
#include <vector>

#include "chip/topology.hpp"
#include "common/matrix.hpp"
#include "multiplex/demux.hpp"
#include "noise/noise_model.hpp"

namespace youtiao {

/** DEMUX fan-out for low-parallelism devices (1:4 cryo-DEMUX). */
inline constexpr std::size_t kLowParallelismFanout = 4;
/** DEMUX fan-out for high-parallelism devices (1:2 cryo-DEMUX). */
inline constexpr std::size_t kHighParallelismFanout = 2;

/** TDM grouping knobs. */
struct TdmGroupingConfig
{
    /** Parallelism threshold theta separating DEMUX levels. */
    double parallelismThreshold = 4.0;
    /**
     * ZZ crosstalk (MHz) above which two gates count as noisy
     * non-parallel (they would not be scheduled together anyway).
     * Calibrated against the residual-ZZ scale (~0.1 MHz neighbours).
     */
    double noisyZzMHz = 0.05;
    /**
     * Minimum average non-parallel fraction a candidate must score
     * against the group to be admitted. 0 fills every group to capacity
     * (maximum line reduction, the Table 1/2 setting); 1 admits only
     * provably-serial devices (zero depth cost, more lines). The
     * trade-off curve is swept in bench_ablations.
     */
    double minGroupScore = 0.0;
};

/** One cryo-DEMUX group. */
struct TdmGroup
{
    /** Device ids (qubits [0,Q) then couplers [Q,Q+C)) on this DEMUX. */
    std::vector<std::size_t> devices;
    /** Fan-out of the DEMUX driving the group (1 = dedicated line). */
    std::size_t fanout = 1;
};

/** Full Z-line multiplexing plan. */
struct TdmPlan
{
    std::vector<TdmGroup> groups;
    /** Group id per device. */
    std::vector<std::size_t> groupOfDevice;

    /** Z lines entering the cryostat (one per group). */
    std::size_t lineCount() const { return groups.size(); }

    /** Twisted-pair DEMUX select lines: sum of log2(fanout). */
    std::size_t selectLineCount() const;

    /** Groups with the given fan-out. */
    std::size_t groupCountWithFanout(std::size_t fanout) const;
};

/**
 * YOUTIAO's noise-aware TDM grouping. @p zz_qubit is the (predicted or
 * measured) qubit-level ZZ crosstalk matrix (MHz) used for noisy
 * non-parallelism.
 */
TdmPlan groupTdm(const ChipTopology &chip, const SymmetricMatrix &zz_qubit,
                 const TdmGroupingConfig &config = {});

/**
 * Pool-restricted variant: the greedy runs independently inside each
 * device pool (used by the generative partition, whose regions bound the
 * search space), while legality is still checked against the full chip.
 * @p pools must cover every device exactly once.
 */
TdmPlan groupTdmPools(const ChipTopology &chip,
                      const SymmetricMatrix &zz_qubit,
                      const TdmGroupingConfig &config,
                      const std::vector<std::vector<std::size_t>> &pools);

/** Do two devices participate in one gate triple {q_a, c, q_b}? */
bool devicesShareGate(const ChipTopology &chip, std::size_t d1,
                      std::size_t d2);

/**
 * Acharya et al. [2] baseline: legal local clustering -- devices are
 * packed into 1:@p fanout DEMUXes by spatial proximity, honouring only the
 * gate-realizability constraint (no non-parallelism awareness).
 */
TdmPlan groupTdmLocalCluster(const ChipTopology &chip, std::size_t fanout);

/** Google-style dedicated wiring: every device gets its own Z line. */
TdmPlan dedicatedZPlan(const ChipTopology &chip);

/**
 * True when no two devices of any single gate triple
 * {q_a, coupler, q_b} share a group (every 2q gate stays realizable).
 */
bool allGatesRealizable(const ChipTopology &chip, const TdmPlan &plan);

/** ZZ crosstalk (MHz) between two gates: worst endpoint-qubit pair. */
double gateZz(const ChipTopology &chip, const SymmetricMatrix &zz_qubit,
              std::size_t gate_a, std::size_t gate_b);

} // namespace youtiao

#endif // YOUTIAO_MULTIPLEX_TDM_HPP
