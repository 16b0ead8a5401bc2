/**
 * @file
 * Descriptive statistics and distribution-distance helpers.
 *
 * Used by the crosstalk fitting pipeline (cross-validation folds) and the
 * crosstalk-generality experiment (ranges, histograms and Jensen-Shannon
 * divergence, Figure 12).
 */

#ifndef YOUTIAO_COMMON_STATISTICS_HPP
#define YOUTIAO_COMMON_STATISTICS_HPP

#include <cstddef>
#include <span>
#include <vector>

namespace youtiao {

/** Smallest element; requires a non-empty span. */
double minimum(std::span<const double> xs);

/** Largest element; requires a non-empty span. */
double maximum(std::span<const double> xs);

/**
 * Fixed-width histogram over [lo, hi] with @p bins bins, normalized to sum
 * to 1. Samples outside the range (including +/-inf) are clamped to the
 * edge bins so that two histograms over the same range are always
 * comparable distributions. NaN samples are skipped entirely: they carry
 * no bin information and do not contribute to the normalization (an
 * all-NaN input yields the all-zero histogram).
 */
std::vector<double> normalizedHistogram(std::span<const double> xs,
                                        double lo, double hi,
                                        std::size_t bins);

/**
 * Kullback-Leibler divergence KL(p || q) in nats over two discrete
 * distributions of equal size. Zero-probability q bins are smoothed with a
 * tiny epsilon to keep the value finite.
 */
double klDivergence(std::span<const double> p, std::span<const double> q);

/**
 * Jensen-Shannon divergence (symmetric, bounded by ln 2) between two
 * discrete distributions of equal size. This is the similarity metric the
 * paper reports for cross-chip crosstalk-model generality (Figure 12).
 */
double jsDivergence(std::span<const double> p, std::span<const double> q);

/**
 * Split indices [0, n) into @p folds contiguous cross-validation folds of
 * near-equal size. Fold f occupies fold boundaries
 * [f*n/folds, (f+1)*n/folds). Shuffle indices beforehand for random folds.
 */
std::vector<std::vector<std::size_t>> kFoldIndices(std::size_t n,
                                                   std::size_t folds);

} // namespace youtiao

#endif // YOUTIAO_COMMON_STATISTICS_HPP
