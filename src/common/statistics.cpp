#include "common/statistics.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace youtiao {

double
minimum(std::span<const double> xs)
{
    requireConfig(!xs.empty(), "minimum of empty span");
    return *std::min_element(xs.begin(), xs.end());
}

double
maximum(std::span<const double> xs)
{
    requireConfig(!xs.empty(), "maximum of empty span");
    return *std::max_element(xs.begin(), xs.end());
}

std::vector<double>
normalizedHistogram(std::span<const double> xs, double lo, double hi,
                    std::size_t bins)
{
    requireConfig(bins > 0, "histogram needs at least one bin");
    requireConfig(hi > lo, "histogram range must be non-empty");
    std::vector<double> hist(bins, 0.0);
    if (xs.empty())
        return hist;
    const double width = (hi - lo) / static_cast<double>(bins);
    // Clamp in floating point before the integer cast: casting NaN or a
    // quotient beyond the range of the integer type is undefined
    // behaviour. NaN samples carry no bin information and are skipped
    // (they do not contribute to the normalization either); +/-inf and
    // finite outliers land in the edge bins like any out-of-range value.
    std::size_t counted = 0;
    for (double x : xs) {
        if (std::isnan(x))
            continue;
        const double raw = std::floor((x - lo) / width);
        if (std::isnan(raw)) // degenerate infinite range
            continue;
        const double clamped =
            std::clamp(raw, 0.0, static_cast<double>(bins - 1));
        hist[static_cast<std::size_t>(clamped)] += 1.0;
        ++counted;
    }
    if (counted == 0)
        return hist;
    const double total = static_cast<double>(counted);
    for (double &h : hist)
        h /= total;
    return hist;
}

double
klDivergence(std::span<const double> p, std::span<const double> q)
{
    requireConfig(p.size() == q.size() && !p.empty(),
                  "KL divergence needs equal-sized non-empty distributions");
    constexpr double eps = 1e-12;
    double sum = 0.0;
    for (std::size_t i = 0; i < p.size(); ++i) {
        if (p[i] <= 0.0)
            continue;
        sum += p[i] * std::log(p[i] / std::max(q[i], eps));
    }
    return sum;
}

double
jsDivergence(std::span<const double> p, std::span<const double> q)
{
    requireConfig(p.size() == q.size() && !p.empty(),
                  "JS divergence needs equal-sized non-empty distributions");
    std::vector<double> m(p.size());
    for (std::size_t i = 0; i < p.size(); ++i)
        m[i] = 0.5 * (p[i] + q[i]);
    return 0.5 * klDivergence(p, m) + 0.5 * klDivergence(q, m);
}

std::vector<std::vector<std::size_t>>
kFoldIndices(std::size_t n, std::size_t folds)
{
    requireConfig(folds >= 2, "cross-validation needs at least 2 folds");
    requireConfig(n >= folds, "need at least one sample per fold");
    std::vector<std::vector<std::size_t>> out(folds);
    for (std::size_t f = 0; f < folds; ++f) {
        const std::size_t begin = f * n / folds;
        const std::size_t end = (f + 1) * n / folds;
        out[f].reserve(end - begin);
        for (std::size_t i = begin; i < end; ++i)
            out[f].push_back(i);
    }
    return out;
}

} // namespace youtiao
