#include "multiplex/frequency_allocation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/metrics.hpp"

namespace youtiao {

CrosstalkNeighborhood::CrosstalkNeighborhood(
    const SymmetricMatrix &crosstalk,
    const std::vector<std::size_t> &line_of_qubit)
{
    const std::size_t n = line_of_qubit.size();
    requireConfig(crosstalk.size() == n,
                  "crosstalk matrix does not match the line map");
    offsets_.assign(n + 1, 0);
    // Entries stay in ascending `other` order so the sparse cost scan
    // accumulates pairs in exactly the dense scan's order: the only
    // skipped pairs contribute an exact +0.0, so sparse and dense sums
    // are bit-identical.
    for (std::size_t q = 0; q < n; ++q) {
        offsets_[q] = others_.size();
        for (std::size_t o = 0; o < n; ++o) {
            if (o == q)
                continue;
            const double x = crosstalk(q, o);
            const bool mate = line_of_qubit[o] == line_of_qubit[q];
            if (x > 0.0 || mate) {
                others_.push_back(static_cast<std::uint32_t>(o));
                crosstalk_.push_back(x);
                sameLine_.push_back(mate ? 1.0 : 0.0);
            }
        }
    }
    offsets_[n] = others_.size();
}

IncrementalAllocationCost::IncrementalAllocationCost(
    const CrosstalkNeighborhood &neighborhood, const NoiseModel &noise)
    : neighborhood_(neighborhood),
      noise_(noise),
      frequencyGHz_(neighborhood.qubitCount(), 0.0),
      placed_(neighborhood.qubitCount(), 0.0)
{}

double
IncrementalAllocationCost::pairCostAgainstPlaced(std::size_t q,
                                                 double f_ghz) const
{
    const auto ids = neighborhood_.neighborIds(q);
    const auto xtalk = neighborhood_.neighborCrosstalk(q);
    double cost = 0.0;
    for (std::size_t k = 0; k < ids.size(); ++k) {
        if (placed_[ids[k]] == 0.0 || xtalk[k] <= 0.0)
            continue;
        cost += xtalk[k] *
                noise_.spectralOverlap(
                    std::abs(f_ghz - frequencyGHz_[ids[k]]));
    }
    return cost;
}

void
IncrementalAllocationCost::place(std::size_t q, double f_ghz)
{
    requireInternal(q < placed_.size() && placed_[q] == 0.0,
                    "qubit placed twice in the incremental cost");
    total_ += pairCostAgainstPlaced(q, f_ghz);
    frequencyGHz_[q] = f_ghz;
    placed_[q] = 1.0;
}

void
IncrementalAllocationCost::move(std::size_t q, double f_ghz)
{
    requireInternal(q < placed_.size() && placed_[q] == 1.0,
                    "cannot move an unplaced qubit");
    placed_[q] = 0.0;
    total_ -= pairCostAgainstPlaced(q, frequencyGHz_[q]);
    total_ += pairCostAgainstPlaced(q, f_ghz);
    frequencyGHz_[q] = f_ghz;
    placed_[q] = 1.0;
}

namespace {

/**
 * Crosstalk cost of qubit q at frequency f against allocated qubits:
 * spatial coupling weighted by spectral overlap, plus in-line pulse
 * leakage towards line mates. Scans only the sparse neighbourhood, so a
 * candidate evaluation is O(degree) instead of O(n).
 */
double
qubitCost(std::size_t q, double f, const std::vector<double> &freq,
          const std::vector<double> &allocated,
          const CrosstalkNeighborhood &neighborhood,
          const NoiseModel &noise)
{
    const auto ids = neighborhood.neighborIds(q);
    const auto xtalk = neighborhood.neighborCrosstalk(q);
    const auto mate = neighborhood.neighborSameLine(q);
    double cost = 0.0;
    for (std::size_t k = 0; k < ids.size(); ++k) {
        if (allocated[ids[k]] == 0.0)
            continue;
        const double df = std::abs(f - freq[ids[k]]);
        if (xtalk[k] > 0.0)
            cost += xtalk[k] * noise.spectralOverlap(df);
        if (mate[k] != 0.0)
            cost += noise.sharedLineLeakage(df);
    }
    return cost;
}

} // namespace

double
allocationCrosstalkCost(const std::vector<double> &frequency_ghz,
                        const SymmetricMatrix &predicted_crosstalk,
                        const NoiseModel &noise)
{
    requireConfig(predicted_crosstalk.size() == frequency_ghz.size(),
                  "crosstalk matrix and frequency vector sizes differ");
    double cost = 0.0;
    for (std::size_t i = 0; i < frequency_ghz.size(); ++i) {
        for (std::size_t j = i + 1; j < frequency_ghz.size(); ++j) {
            cost += predicted_crosstalk(i, j) *
                    noise.spectralOverlap(
                        std::abs(frequency_ghz[i] - frequency_ghz[j]));
        }
    }
    return cost;
}

FrequencyPlan
allocateFrequencies(const FdmPlan &plan,
                    const SymmetricMatrix &predicted_crosstalk,
                    const NoiseModel &noise,
                    const FrequencyAllocationConfig &config)
{
    const std::size_t n = plan.lineOfQubit.size();
    requireConfig(predicted_crosstalk.size() == n,
                  "crosstalk matrix does not match the plan");

    FrequencyPlan out;
    out.zoneCount = std::max<std::size_t>(1, plan.maxGroupSize());
    const XyLattice lattice(out.zoneCount);
    requireConfig(lattice.cellsPerZone >= 1,
                  "cell granularity too coarse for the zone width");

    out.frequencyGHz.assign(n, 0.0);
    out.zoneOfQubit.assign(n, 0);
    out.cellOfQubit.assign(n, 0);
    std::vector<double> allocated(n, 0.0);

    const CrosstalkNeighborhood neighborhood(predicted_crosstalk,
                                             plan.lineOfQubit);
    metrics::count("freq.sparse_entries", neighborhood.entryCount());

    // Level 1: members of each line take distinct zones (member k ->
    // zone k). Level 2: pick the cell minimizing spectral-overlap-weighted
    // crosstalk against everything already placed; the overlap term makes
    // an occupied cell expensive unless its occupants are crosstalk-far,
    // which is exactly the paper's frequency-reuse rule under crowding.
    for (const auto &line : plan.lines) {
        for (std::size_t k = 0; k < line.size(); ++k) {
            const std::size_t q = line[k];
            const std::size_t zone = k % out.zoneCount;
            double best_cost = std::numeric_limits<double>::infinity();
            std::size_t best_cell = 0;
            bool have_cell = false;
            for (std::size_t cell = 0; cell < lattice.cellsPerZone;
                 ++cell) {
                const double f = lattice.centreGHz(zone, cell);
                if (isMaskedGHz(f, config.maskedBandsGHz))
                    continue;
                const double cost = qubitCost(q, f, out.frequencyGHz,
                                              allocated, neighborhood,
                                              noise);
                if (cost < best_cost) {
                    best_cost = cost;
                    best_cell = cell;
                    have_cell = true;
                }
            }
            requireConfig(have_cell,
                          "frequency allocation infeasible: every cell "
                          "of zone " + std::to_string(zone) +
                              " is masked");
            out.zoneOfQubit[q] = zone;
            out.cellOfQubit[q] = best_cell;
            out.frequencyGHz[q] = lattice.centreGHz(zone, best_cell);
            allocated[q] = 1.0;
        }
    }

    // Swap pass: exchanging two members' (zone, cell) slots within a line
    // keeps both levels legal, so accept any swap lowering the cost. Each
    // candidate is evaluated over the sparse neighbourhoods of the two
    // members only — a delta instead of the full objective.
    for (std::size_t pass = 0; pass < config.swapPasses; ++pass) {
        bool improved = false;
        for (const auto &line : plan.lines) {
            for (std::size_t a = 0; a < line.size(); ++a) {
                for (std::size_t b = a + 1; b < line.size(); ++b) {
                    const std::size_t qa = line[a], qb = line[b];
                    const double before =
                        qubitCost(qa, out.frequencyGHz[qa],
                                  out.frequencyGHz, allocated,
                                  neighborhood, noise) +
                        qubitCost(qb, out.frequencyGHz[qb],
                                  out.frequencyGHz, allocated,
                                  neighborhood, noise);
                    std::swap(out.frequencyGHz[qa], out.frequencyGHz[qb]);
                    const double after =
                        qubitCost(qa, out.frequencyGHz[qa],
                                  out.frequencyGHz, allocated,
                                  neighborhood, noise) +
                        qubitCost(qb, out.frequencyGHz[qb],
                                  out.frequencyGHz, allocated,
                                  neighborhood, noise);
                    if (after + 1e-15 < before) {
                        std::swap(out.zoneOfQubit[qa], out.zoneOfQubit[qb]);
                        std::swap(out.cellOfQubit[qa], out.cellOfQubit[qb]);
                        improved = true;
                    } else {
                        std::swap(out.frequencyGHz[qa],
                                  out.frequencyGHz[qb]);
                    }
                }
            }
        }
        if (!improved)
            break;
    }

    // The canonical full objective, bit-compatible with the dense
    // implementation.
    out.crosstalkCost = allocationCrosstalkCost(out.frequencyGHz,
                                                predicted_crosstalk, noise);
    return out;
}

FrequencyPlan
allocateFrequenciesInLineOnly(const FdmPlan &plan)
{
    const std::size_t n = plan.lineOfQubit.size();
    FrequencyPlan out;
    out.zoneCount = std::max<std::size_t>(1, plan.maxGroupSize());
    out.frequencyGHz.assign(n, 0.0);
    out.zoneOfQubit.assign(n, 0);
    out.cellOfQubit.assign(n, 0);
    const double band = kXyBandHiGHz - kXyBandLoGHz;
    for (const auto &line : plan.lines) {
        const auto m = static_cast<double>(line.size());
        for (std::size_t k = 0; k < line.size(); ++k) {
            // Even in-line spread; every line reuses the same comb.
            const std::size_t q = line[k];
            out.frequencyGHz[q] = kXyBandLoGHz +
                                  (static_cast<double>(k) + 0.5) * band / m;
            out.zoneOfQubit[q] = k;
        }
    }
    return out;
}

FrequencyPlan
allocateFrequenciesFabrication(const FdmPlan &plan,
                               const std::vector<double> &base_frequencies)
{
    requireConfig(base_frequencies.size() == plan.lineOfQubit.size(),
                  "base frequency vector does not match the plan");
    FrequencyPlan out;
    out.zoneCount = std::max<std::size_t>(1, plan.maxGroupSize());
    out.frequencyGHz = base_frequencies;
    out.zoneOfQubit.assign(base_frequencies.size(), 0);
    out.cellOfQubit.assign(base_frequencies.size(), 0);
    return out;
}

} // namespace youtiao
