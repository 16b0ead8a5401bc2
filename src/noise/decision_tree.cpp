#include "noise/decision_tree.hpp"

#include <cfloat>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <utility>

#include "common/metrics.hpp"

namespace youtiao {

namespace {

/** The samples of one x value in x order: their count, sum of y and sum
 *  of fl(y * y). x is the last sample's (a -0.0/+0.0 run keeps the sign
 *  the per-sample scan's threshold had). */
struct Run
{
    double x;
    std::size_t count;
    double sum;
    double sumSq;
};

/** A scan's best boundary gain, its threshold and the samples left of
 *  it, and the best gain of any other boundary; both gains read -inf
 *  with no legal boundary. */
struct SplitScan
{
    double best = -std::numeric_limits<double>::infinity();
    double threshold = 0.0;
    std::size_t leftCount = 0;
    double runnerUp = -std::numeric_limits<double>::infinity();
};

/** Scan the boundaries between @p runs (sorted by x; @p count samples in
 *  all) for the least child SSE. Boundaries fall only between distinct x
 *  values and leave at least @p min_leaf samples each side; the first
 *  greatest gain wins. */
SplitScan
scanSplits(std::span<const Run> runs, std::size_t count, double sum,
           double sum_sq, double node_sse, std::size_t min_leaf)
{
    SplitScan scan;
    double left_sum = 0.0, left_sq = 0.0;
    std::size_t left_n = 0;
    for (std::size_t k = 0; k + 1 < runs.size(); ++k) {
        left_sum += runs[k].sum;
        left_sq += runs[k].sumSq;
        left_n += runs[k].count;
        const std::size_t right_n = count - left_n;
        const double x_here = runs[k].x;
        if (left_n < min_leaf || right_n < min_leaf ||
            runs[k + 1].x <= x_here) // equal values stay together
            continue;
        const double right_sum = sum - left_sum;
        const double right_sq = sum_sq - left_sq;
        const double left_sse =
            left_sq - left_sum * left_sum / static_cast<double>(left_n);
        const double right_sse =
            right_sq - right_sum * right_sum / static_cast<double>(right_n);
        const double gain = node_sse - left_sse - right_sse;
        if (gain > scan.best) {
            scan.runnerUp = scan.best;
            scan.best = gain;
            // Split at the left value itself ("<=" goes left): the
            // midpoint of two adjacent doubles can round up to the right
            // value and empty a child.
            scan.threshold = x_here;
            scan.leftCount = left_n;
        } else if (gain > scan.runnerUp) {
            scan.runnerUp = gain;
        }
    }
    return scan;
}

/** Grows one tree into its interval table, left to right. */
struct TreeBuilder
{
    const DecisionTreeConfig &config;
    std::vector<double> &thresholds;
    std::vector<double> &leaves;
    std::size_t &depth;
    /** partitionAtThreshold's scratch, one slot per bagged sample. */
    std::vector<std::size_t> slots;

    /** Grow the node whose samples are @p live (draw order, partitioned
     *  here) and, the same samples, @p runs (x order). */
    void build(std::span<TreeSample> live, std::span<const Run> runs,
               std::size_t node_depth);
};

void
TreeBuilder::build(std::span<TreeSample> live, std::span<const Run> runs,
                   std::size_t node_depth)
{
    const std::size_t count = live.size();
    double sum = 0.0, sum_sq = 0.0, max_sq = 0.0;
    for (const TreeSample &s : live) {
        sum += s.y;
        sum_sq += s.y * s.y;
        max_sq = std::max(max_sq, s.y * s.y);
    }
    const double node_mean = sum / static_cast<double>(count);
    const double node_sse = sum_sq - sum * node_mean;

    std::optional<SplitScan> split;
    if (node_depth < config.maxDepth && count >= config.minSamplesSplit &&
        node_sse > 1e-18) {
        // The reference decision sorts the live run by x and scans it
        // sample by sample: the first greatest gain splits iff it is > 0.
        // The run scan sees the same boundaries at the same positions
        // (group ends), the same min-leaf tests, thresholds equal as
        // values and the same sum, sum_sq and node_sse (all from the live
        // run). Only the order in which each boundary's prefix sums
        // L = sum y and Q = sum fl(y*y) add the same l samples differs:
        // a run's sums are partial sums of its samples, added up run by
        // run. With u = DBL_EPSILON / 2, Y2 = max y^2 over the m = count
        // samples and r = m - l, to first order in u:
        //  - any order of summation errs by at most (l - 1) u sum|y|, so
        //    the two orders' L differ by at most 2 (l - 1) l u Y;
        //  - the exact gain node_sse - sum_sq + L^2/l + R^2/r (R = sum - L)
        //    does not depend on Q, and |d/dL| = |2L/l - 2R/r| <= 4Y, so
        //    the orders move it by at most 8 (l - 1) l u Y2 <= 4 m^2 eps Y2;
        //  - evaluating the expression rounds R, sum_sq - Q, each child
        //    SSE's product, quotient and difference, and the two final
        //    differences: at most (3l + 6r + 2m) u Y2 <= 8 m u Y2 per
        //    order, 8 m eps Y2 for the two.
        // So |gain_ref - gain_scan| <= 12 m^2 eps Y2 at every boundary;
        // delta leaves over 2.5x of that for the higher-order terms, and
        // a wider delta would only add rescans.
        const double m = static_cast<double>(count);
        const double delta = 32.0 * m * m * DBL_EPSILON * max_sq;
        const SplitScan scan = scanSplits(runs, count, sum, sum_sq, node_sse,
                                          config.minSamplesLeaf);
        if (scan.best > delta && scan.best - scan.runnerUp > 2.0 * delta) {
            // The reference gain there is > 0 and above every other one.
            split = scan;
        } else if (!(scan.best < -delta)) {
            // Not certified a leaf either (every reference gain < 0):
            // rescan in the reference order, one run per sample. So does
            // every node once y * y overflows and delta is infinite.
            metrics::count("noise.split_rescans");
            std::vector<Run> sorted;
            sorted.reserve(count);
            for (const TreeSample &s : live)
                sorted.push_back({s.x, 1, s.y, s.y * s.y});
            std::sort(sorted.begin(), sorted.end(),
                      [](const Run &a, const Run &b) { return a.x < b.x; });
            const SplitScan reference = scanSplits(
                sorted, count, sum, sum_sq, node_sse, config.minSamplesLeaf);
            if (reference.best > 0.0)
                split = reference;
        }
    }
    if (!split) {
        leaves.push_back(node_mean);
        depth = std::max(depth, node_depth);
        return;
    }

    // Partition the live run around the threshold and emit in order:
    // left subtree, threshold, right subtree. The runs need no move:
    // those left of the first run with x > threshold hold exactly the
    // split->leftCount samples with x <= threshold.
    const double threshold = split->threshold;
    const std::size_t mid = split->leftCount;
    if (mid == 0 || mid == count)
        throw InternalError("split produced an empty child");
    const auto left_runs = static_cast<std::size_t>(
        std::ranges::partition_point(
            runs, [threshold](const Run &r) { return r.x <= threshold; }) -
        runs.begin());
    partitionAtThreshold(live, threshold, mid,
                         std::span(slots).first(count));
    build(live.first(mid), runs.first(left_runs), node_depth + 1);
    thresholds.push_back(threshold);
    build(live.subspan(mid), runs.subspan(left_runs), node_depth + 1);
}

} // namespace

std::vector<std::size_t>
sortRowsByX(std::span<const double> x)
{
    requireConfig(
        std::ranges::none_of(x, [](double v) { return std::isnan(v); }),
        "feature values must not be NaN");
    std::vector<std::size_t> rows(x.size());
    std::iota(rows.begin(), rows.end(), 0);
    std::ranges::stable_sort(rows, {}, [x](std::size_t r) { return x[r]; });
    return rows;
}

void
partitionAtThreshold(std::span<TreeSample> live, double threshold,
                     std::size_t mid, std::span<std::size_t> slots)
{
    // libstdc++'s loop swaps the k-th sample with x > threshold from the
    // left with the k-th sample with x <= threshold from the right until
    // the pointers cross: exactly the ones left and right of mid. Both
    // lists go to slots without a branch, the left one in [0, mid) and
    // the right one in [mid, end).
    std::size_t wrong_left = 0;
    for (std::size_t i = 0; i < mid; ++i) {
        slots[wrong_left] = i;
        wrong_left += static_cast<std::size_t>(!(live[i].x <= threshold));
    }
    std::size_t wrong_right = 0;
    for (std::size_t j = live.size(); j-- > mid;) {
        slots[mid + wrong_right] = j;
        wrong_right += static_cast<std::size_t>(live[j].x <= threshold);
    }
    if (wrong_left != wrong_right)
        throw InternalError("split count disagrees with the partition");
    for (std::size_t k = 0; k < wrong_left; ++k)
        std::swap(live[slots[k]], live[slots[mid + k]]);
}

DecisionTree::DecisionTree(DecisionTreeConfig config)
    : config_(config)
{
    requireConfig(config_.minSamplesLeaf >= 1,
                  "minSamplesLeaf must be at least 1");
    requireConfig(config_.minSamplesSplit >= 2 * config_.minSamplesLeaf,
                  "minSamplesSplit must allow two legal leaves");
}

void
DecisionTree::fit(std::span<const double> x,
                  std::span<const double> targets,
                  const std::vector<std::size_t> &sample_indices,
                  std::span<const std::size_t> by_x)
{
    requireConfig(x.size() == targets.size(),
                  "feature and target counts differ");
    requireConfig(!targets.empty(), "cannot fit on zero samples");
    requireConfig(by_x.size() == x.size(),
                  "row order and feature counts differ");
    const std::size_t n = targets.size();

    std::vector<std::size_t> every_row;
    std::span<const std::size_t> bag = sample_indices;
    if (bag.empty()) {
        every_row.resize(n);
        std::iota(every_row.begin(), every_row.end(), 0);
        bag = every_row;
    }
    requireConfig(std::ranges::max(bag) < n, "bagging index out of range");

    // The live samples in draw order, and how often each row was drawn.
    std::vector<TreeSample> live;
    live.reserve(bag.size());
    std::vector<std::size_t> copies(n, 0);
    for (const std::size_t r : bag) {
        live.push_back({x[r], targets[r]});
        ++copies[r];
    }
    // The same samples in x order as runs: each row's copies, walked in
    // by_x. Taking a row's copies zeroes its count, so a repeated row
    // adds none and a missing drawn row shows as a short total.
    std::vector<Run> runs;
    std::size_t laid_out = 0;
    for (const std::size_t r : by_x) {
        if (r >= n) // not requireConfig: no message built per row
            throw ConfigError("row order index out of range");
        if (copies[r] == 0)
            continue;
        const double xr = x[r];
        const double yr = targets[r];
        const double last =
            runs.empty() ? -std::numeric_limits<double>::infinity()
                         : runs.back().x;
        if (!(last <= xr)) // also a NaN
            throw ConfigError("row order is not sorted by x");
        if (runs.empty() || last < xr)
            runs.push_back({xr, 0, 0.0, 0.0});
        Run &run = runs.back();
        run.x = xr;
        laid_out += copies[r];
        for (; copies[r] > 0; --copies[r]) {
            run.sum += yr;
            run.sumSq += yr * yr;
            ++run.count;
        }
    }
    requireConfig(laid_out == live.size(), "row order misses a drawn row");

    // Build into a fresh tree, so a throw leaves this one as it was.
    DecisionTree tree(config_);
    TreeBuilder{tree.config_, tree.thresholds_, tree.leaves_, tree.depth_,
                std::vector<std::size_t>(live.size())}
        .build(live, runs, 0);
    requireInternal(tree.leaves_.size() == tree.thresholds_.size() + 1,
                    "interval table: leaves must be splits + 1");
    for (std::size_t s = 1; s < tree.thresholds_.size(); ++s) {
        if (!(tree.thresholds_[s - 1] < tree.thresholds_[s]))
            throw InternalError("interval table: splits must increase");
    }
    *this = std::move(tree);
}

} // namespace youtiao
