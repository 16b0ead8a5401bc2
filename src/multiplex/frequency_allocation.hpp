/**
 * @file
 * Two-level coarse-grained frequency allocation (paper Section 4.2).
 *
 * The usable band (4-7 GHz) is cut into as many zones as an FDM line
 * carries qubits; zones are cut into 10 MHz cells. Members of one line
 * land in distinct zones (large in-line spacing); across lines, qubits in
 * one zone take distinct cells; a crosstalk-model-guided swap pass then
 * reduces residual spatial crosstalk, and under frequency crowding cells
 * are reused by the spatially farthest pairs.
 */

#ifndef YOUTIAO_MULTIPLEX_FREQUENCY_ALLOCATION_HPP
#define YOUTIAO_MULTIPLEX_FREQUENCY_ALLOCATION_HPP

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/matrix.hpp"
#include "common/units.hpp"
#include "multiplex/fdm.hpp"
#include "noise/noise_model.hpp"

namespace youtiao {

/**
 * Usable XY band (GHz), paper Section 4.2. The drift model draws its TLS
 * frequencies from it; this band and the lattice below are header-only,
 * so it does so without linking the multiplexing library.
 */
inline constexpr double kXyBandLoGHz = 4.0;
inline constexpr double kXyBandHiGHz = 7.0;
/** Width of one allocation cell (GHz). */
inline constexpr double kXyCellGHz = 10.0 * units::MHz;

/**
 * The (zone, cell) lattice of an allocation with @p zone_count zones:
 * the XY band cut into equal zones, each cut into whole cells. Every
 * frequency the allocator, the seam stitch and the drift adapter assign
 * is a cell centre of this lattice.
 */
struct XyLattice
{
    explicit XyLattice(std::size_t zone_count)
        : zoneWidthGHz((kXyBandHiGHz - kXyBandLoGHz) /
                       static_cast<double>(
                           std::max<std::size_t>(1, zone_count))),
          cellsPerZone(static_cast<std::size_t>(
              std::floor(zoneWidthGHz / kXyCellGHz)))
    {}

    double zoneWidthGHz;
    std::size_t cellsPerZone;

    /** Centre frequency (GHz) of cell @p cell of zone @p zone. */
    double centreGHz(std::size_t zone, std::size_t cell) const
    {
        return kXyBandLoGHz + static_cast<double>(zone) * zoneWidthGHz +
               (static_cast<double>(cell) + 0.5) * kXyCellGHz;
    }
};

/** True when @p f_ghz falls in one of the [lo, hi) slices of @p masks. */
inline bool
isMaskedGHz(double f_ghz,
            const std::vector<std::pair<double, double>> &masks)
{
    for (const auto &[lo, hi] : masks) {
        if (f_ghz >= lo && f_ghz < hi)
            return true;
    }
    return false;
}

/** Allocation knobs. */
struct FrequencyAllocationConfig
{
    /** Local-search passes over intra-group zone swaps. */
    std::size_t swapPasses = 3;
    /**
     * Unusable slices of the band as [lo, hi) GHz pairs (TWPA dips,
     * package resonances, defect masks -- see chip/defects.hpp). Cells
     * whose centre frequency lands in a masked slice are never
     * assigned; a qubit left with no usable cell makes the allocation
     * infeasible (ConfigError), which the designer's degradation ladder
     * answers by shrinking group sizes. Empty = whole band usable.
     */
    std::vector<std::pair<double, double>> maskedBandsGHz;
};

/**
 * Sparse crosstalk neighbourhood of an FDM plan: per qubit, the union of
 * (a) qubits with nonzero pairwise crosstalk and (b) its FDM line mates
 * (which always contribute in-line pulse leakage regardless of spatial
 * crosstalk), stored CSR-style in ascending qubit order so a sparse cost
 * scan visits pairs in exactly the dense scan's order. Skipped pairs
 * contribute an exact +0.0, so sparse and dense sums are bit-identical.
 *
 * Storage is struct-of-arrays: the cost loops stream the crosstalk and
 * line-mate arrays contiguously and look frequencies up by the id
 * array. The line-mate flag is a 0.0/1.0 double.
 */
class CrosstalkNeighborhood
{
  public:
    CrosstalkNeighborhood(const SymmetricMatrix &crosstalk,
                          const std::vector<std::size_t> &line_of_qubit);

    /** Neighbour qubit ids of @p q, ascending. */
    std::span<const std::uint32_t> neighborIds(std::size_t q) const
    {
        return {others_.data() + offsets_[q], degree(q)};
    }

    /** Pairwise crosstalk per neighbour (0 for pure line mates). */
    std::span<const double> neighborCrosstalk(std::size_t q) const
    {
        return {crosstalk_.data() + offsets_[q], degree(q)};
    }

    /** 1.0 when the neighbour shares q's FDM line, else 0.0. */
    std::span<const double> neighborSameLine(std::size_t q) const
    {
        return {sameLine_.data() + offsets_[q], degree(q)};
    }

    std::size_t degree(std::size_t q) const
    {
        return offsets_[q + 1] - offsets_[q];
    }

    std::size_t qubitCount() const { return offsets_.size() - 1; }
    /** Directed entries kept (diagnostic; dense scan would be n*(n-1)). */
    std::size_t entryCount() const { return others_.size(); }

  private:
    std::vector<std::size_t> offsets_;
    std::vector<std::uint32_t> others_;
    std::vector<double> crosstalk_;
    std::vector<double> sameLine_;
};

/**
 * Running spectral-crosstalk objective maintained with O(deg) delta
 * updates per placement or retune instead of the O(n^2) full recompute.
 * Tracks the same sum as allocationCrosstalkCost: the two agree to
 * floating-point accumulation order (tested to 1e-9).
 */
class IncrementalAllocationCost
{
  public:
    IncrementalAllocationCost(const CrosstalkNeighborhood &neighborhood,
                              const NoiseModel &noise);

    /** Register qubit @p q operating at @p f_ghz (must be unplaced). */
    void place(std::size_t q, double f_ghz);

    /** Retune already-placed qubit @p q to @p f_ghz. */
    void move(std::size_t q, double f_ghz);

    double total() const { return total_; }

  private:
    double pairCostAgainstPlaced(std::size_t q, double f_ghz) const;

    const CrosstalkNeighborhood &neighborhood_;
    const NoiseModel &noise_;
    std::vector<double> frequencyGHz_;
    /** 1.0 = placed, 0.0 = not. */
    std::vector<double> placed_;
    double total_ = 0.0;
};

/** Resulting spectrum assignment. */
struct FrequencyPlan
{
    /** Operating frequency per qubit (GHz). */
    std::vector<double> frequencyGHz;
    /** Zone index per qubit. */
    std::vector<std::size_t> zoneOfQubit;
    /** Cell index (within its zone) per qubit. */
    std::vector<std::size_t> cellOfQubit;
    /** Zones carved from the band (= max FDM group size). */
    std::size_t zoneCount = 0;
    /** Estimated total crosstalk cost after allocation (diagnostic). */
    double crosstalkCost = 0.0;
};

/**
 * YOUTIAO's two-level allocation for @p plan. @p predicted_crosstalk is
 * the fitted model's qubit-pair crosstalk matrix; @p noise supplies the
 * spectral-overlap weighting used by the swap optimization.
 */
FrequencyPlan allocateFrequencies(const FdmPlan &plan,
                                  const SymmetricMatrix &predicted_crosstalk,
                                  const NoiseModel &noise,
                                  const FrequencyAllocationConfig &config
                                  = {});

/**
 * George et al. [13] baseline: optimal in-line spacing (members of each
 * line spread evenly across the full band) but no inter-line
 * coordination -- every line reuses the same frequency comb, so nearby
 * qubits on different lines may collide spectrally.
 */
FrequencyPlan allocateFrequenciesInLineOnly(const FdmPlan &plan);

/**
 * Unoptimized baseline: qubits keep their fabrication base frequencies
 * (no multiplexing-aware retuning at all).
 */
FrequencyPlan allocateFrequenciesFabrication(
    const FdmPlan &plan, const std::vector<double> &base_frequencies);

/**
 * Total spectral-overlap-weighted crosstalk of an assignment:
 * sum over qubit pairs of crosstalk(i,j) * lorentzian(|f_i - f_j|).
 * The objective minimized by the swap pass; exposed for tests/benches.
 */
double allocationCrosstalkCost(const std::vector<double> &frequency_ghz,
                               const SymmetricMatrix &predicted_crosstalk,
                               const NoiseModel &noise);

} // namespace youtiao

#endif // YOUTIAO_MULTIPLEX_FREQUENCY_ALLOCATION_HPP
