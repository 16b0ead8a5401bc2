#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/prng.hpp"
#include "noise/decision_tree.hpp"
#include "noise/random_forest.hpp"

namespace youtiao {
namespace {

TEST(DecisionTree, ConstantTargetGivesConstantLeaf)
{
    DecisionTree tree;
    const std::vector<double> x{1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
    const std::vector<double> y(6, 3.5);
    tree.fit(x, y, {}, sortRowsByX(x));
    EXPECT_DOUBLE_EQ(tree.predict(x[0]), 3.5);
    EXPECT_EQ(tree.nodeCount(), 1u);
}

TEST(DecisionTree, LearnsStepFunction)
{
    DecisionTree tree;
    std::vector<double> x, y;
    for (int i = 0; i < 20; ++i) {
        x.push_back(i);
        y.push_back(i < 10 ? 1.0 : 5.0);
    }
    tree.fit(x, y, {}, sortRowsByX(x));
    EXPECT_NEAR(tree.predict(2.0), 1.0, 1e-9);
    EXPECT_NEAR(tree.predict(15.0), 5.0, 1e-9);
}

TEST(DecisionTree, ApproximatesSmoothFunction)
{
    DecisionTreeConfig cfg;
    cfg.maxDepth = 10;
    cfg.minSamplesLeaf = 2;
    cfg.minSamplesSplit = 4;
    DecisionTree tree(cfg);
    std::vector<double> x, y;
    for (int i = 0; i < 200; ++i) {
        const double v = i / 20.0;
        x.push_back(v);
        y.push_back(std::exp(-v));
    }
    tree.fit(x, y, {}, sortRowsByX(x));
    double max_err = 0.0;
    for (int i = 0; i < 200; ++i)
        max_err = std::max(max_err, std::abs(tree.predict(x[i]) - y[i]));
    EXPECT_LT(max_err, 0.1);
}

TEST(DecisionTree, RespectsMaxDepth)
{
    DecisionTreeConfig cfg;
    cfg.maxDepth = 2;
    cfg.minSamplesLeaf = 1;
    cfg.minSamplesSplit = 2;
    DecisionTree tree(cfg);
    std::vector<double> x, y;
    for (int i = 0; i < 64; ++i) {
        x.push_back(i);
        y.push_back(i);
    }
    tree.fit(x, y, {}, sortRowsByX(x));
    EXPECT_LE(tree.depth(), 2u);
}

TEST(DecisionTree, RespectsMinSamplesLeaf)
{
    DecisionTreeConfig cfg;
    cfg.minSamplesLeaf = 5;
    cfg.minSamplesSplit = 10;
    DecisionTree tree(cfg);
    std::vector<double> x{1, 2, 3, 4, 5, 6};
    std::vector<double> y{0, 0, 0, 1, 1, 1};
    tree.fit(x, y, {}, sortRowsByX(x));
    // 6 samples cannot split into two leaves of >= 5.
    EXPECT_EQ(tree.nodeCount(), 1u);
}

TEST(DecisionTree, BaggingSubsetUsed)
{
    DecisionTree tree;
    std::vector<double> x{0, 1, 2, 3, 4, 5, 6, 7};
    std::vector<double> y{0, 0, 0, 0, 9, 9, 9, 9};
    // Restrict to the low half only: prediction everywhere ~0.
    tree.fit(x, y, {0, 1, 2, 3}, sortRowsByX(x));
    EXPECT_DOUBLE_EQ(tree.predict(7.0), 0.0);
}

TEST(DecisionTree, ErrorsOnBadInput)
{
    DecisionTree tree;
    std::vector<double> x{1, 2};
    std::vector<double> y{1};
    const std::vector<std::size_t> by_x = sortRowsByX(x);
    EXPECT_THROW(tree.fit(x, {}, {}, by_x), ConfigError);
    EXPECT_THROW(tree.fit(x, y, {}, by_x), ConfigError);
    EXPECT_THROW(tree.fit({}, {}, {}, {}), ConfigError);
    EXPECT_THROW(tree.fit(x, x, {2}, by_x), ConfigError);
    EXPECT_THROW(tree.predict(x[0]), ConfigError);
    DecisionTreeConfig bad;
    bad.minSamplesLeaf = 4;
    bad.minSamplesSplit = 4;
    EXPECT_THROW(DecisionTree{bad}, ConfigError);
}

TEST(DecisionTree, EqualFeatureValuesNotSplit)
{
    DecisionTree tree;
    std::vector<double> x(10, 1.0); // all identical
    std::vector<double> y{0, 1, 0, 1, 0, 1, 0, 1, 0, 1};
    tree.fit(x, y, {}, sortRowsByX(x));
    EXPECT_EQ(tree.nodeCount(), 1u);
    EXPECT_DOUBLE_EQ(tree.predict(1.0), 0.5);
}

TEST(DecisionTree, RejectsNaNFeaturesAndBadRowOrders)
{
    const std::vector<double> x{3.0, 1.0, 2.0, 1.0, 0.0, 5.0};
    const std::vector<double> y{1, 2, 3, 4, 5, 6};
    DecisionTree tree;
    const std::vector<double> with_nan{
        1.0, std::numeric_limits<double>::quiet_NaN(), 2.0, 3.0, 4.0, 5.0};
    EXPECT_THROW(sortRowsByX(with_nan), ConfigError);
    EXPECT_THROW(tree.fit(with_nan, y, {}, {{0, 1, 2, 3, 4, 5}}),
                 ConfigError);

    const std::vector<std::size_t> by_x = sortRowsByX(x);
    EXPECT_EQ(by_x, (std::vector<std::size_t>{4, 1, 3, 2, 0, 5}));
    EXPECT_NO_THROW(tree.fit(x, y, {}, by_x));
    const std::vector<std::size_t> unsorted{0, 1, 2, 3, 4, 5};
    EXPECT_THROW(tree.fit(x, y, {}, unsorted), ConfigError);
    const std::vector<std::size_t> short_order{4, 1, 3, 2, 0};
    EXPECT_THROW(tree.fit(x, y, {}, short_order), ConfigError);
    const std::vector<std::size_t> out_of_range{4, 1, 3, 2, 0, 6};
    EXPECT_THROW(tree.fit(x, y, {}, out_of_range), ConfigError);
    // Row 5 repeated in place of row 0, which the bag draws.
    const std::vector<std::size_t> missing{4, 1, 3, 2, 5, 5};
    EXPECT_THROW(tree.fit(x, y, {0, 5}, missing), ConfigError);
    EXPECT_NO_THROW(tree.fit(x, y, {1, 5}, missing)); // row 0 not drawn
}

// ------------------------------- the partition against a two-pointer loop

/** The two-pointer (Hoare) loop of libstdc++'s std::partition for
 *  bidirectional iterators: the order the fit's leaves sum in. */
void
hoarePartition(std::vector<TreeSample> &items, double threshold)
{
    auto first = items.begin();
    auto last = items.end();
    while (true) {
        while (first != last && first->x <= threshold)
            ++first;
        if (first == last)
            return;
        --last;
        while (first != last && !(last->x <= threshold))
            --last;
        if (first == last)
            return;
        std::iter_swap(first, last);
        ++first;
    }
}

TEST(PartitionAtThreshold, MatchesTwoPointerLoop)
{
    enum class Shape
    {
        AllLeft,
        AllRight,
        Alternating,
        HeavyTies,
        Random,
    };
    Prng prng(0x9A27);
    for (std::size_t m = 0; m <= 2000; ++m) {
        for (const Shape shape : {Shape::AllLeft, Shape::AllRight,
                                  Shape::Alternating, Shape::HeavyTies,
                                  Shape::Random}) {
            std::vector<TreeSample> items(m);
            double threshold = 0.0;
            for (std::size_t i = 0; i < m; ++i) {
                double x = 0.0;
                switch (shape) {
                case Shape::AllLeft:
                    x = -static_cast<double>(prng.uniformInt(8));
                    break;
                case Shape::AllRight:
                    x = 1.0 + static_cast<double>(prng.uniformInt(8));
                    break;
                case Shape::Alternating:
                    x = i % 2 == 0 ? 1.0 : -1.0;
                    break;
                case Shape::HeavyTies:
                    x = static_cast<double>(prng.uniformInt(3)) - 1.0;
                    if (x == 0.0 && prng.bernoulli(0.5))
                        x = -0.0;
                    break;
                case Shape::Random:
                    x = prng.uniform(-1.0, 1.0);
                    break;
                }
                // y records each sample's draw position.
                items[i] = {x, static_cast<double>(i)};
            }
            if (shape == Shape::Random)
                threshold = prng.uniform(-1.1, 1.1);
            const auto left = [threshold](const TreeSample &s) {
                return s.x <= threshold;
            };
            const auto mid =
                static_cast<std::size_t>(std::ranges::count_if(items, left));
            std::vector<TreeSample> want = items;
            hoarePartition(want, threshold);
            std::vector<std::size_t> slots(m);
            partitionAtThreshold(items, threshold, mid, slots);
            for (std::size_t i = 0; i < m; ++i) {
                ASSERT_EQ(std::bit_cast<std::uint64_t>(items[i].x),
                          std::bit_cast<std::uint64_t>(want[i].x))
                    << "m " << m << " shape " << static_cast<int>(shape)
                    << " at " << i;
                ASSERT_EQ(items[i].y, want[i].y)
                    << "m " << m << " shape " << static_cast<int>(shape)
                    << " at " << i;
            }
            // A count that is not #{x <= threshold} is refused.
            if (mid > 0) {
                EXPECT_THROW(
                    partitionAtThreshold(items, threshold, mid - 1, slots),
                    InternalError);
            }
            if (mid < m) {
                EXPECT_THROW(
                    partitionAtThreshold(items, threshold, mid + 1, slots),
                    InternalError);
            }
        }
    }
}

// ------------------------------------- presorted fit against its oracle

/**
 * The per-node-sort fit the presorted one replaced, kept as its oracle.
 * Each node sums its live index range in order, sorts a copy of it by x
 * with std::sort, scans the boundaries for the first greatest gain and
 * partitions the live range around it with std::partition. With by_row
 * set it sorts the copy by (x, row) instead: the presorted scan trusted
 * without its certificate.
 */
class OracleTree
{
  public:
    OracleTree(DecisionTreeConfig config, bool by_row)
        : config_(config), byRow_(by_row)
    {}

    void
    fit(std::span<const double> x, std::span<const double> y,
        std::vector<std::size_t> indices)
    {
        if (indices.empty()) {
            indices.resize(y.size());
            std::iota(indices.begin(), indices.end(), 0);
        }
        build(x, y, indices, 0, indices.size(), 0);
    }

    double
    predict(double v) const
    {
        const auto past = std::ranges::partition_point(
            thresholds_, [v](double t) { return !(v <= t); });
        return leaves_[static_cast<std::size_t>(past - thresholds_.begin())];
    }

    std::size_t nodeCount() const
    {
        return thresholds_.size() + leaves_.size();
    }
    std::size_t depth() const { return depth_; }

  private:
    void
    build(std::span<const double> x, std::span<const double> targets,
          std::vector<std::size_t> &indices, std::size_t begin,
          std::size_t end, std::size_t node_depth)
    {
        const auto first =
            indices.begin() + static_cast<std::ptrdiff_t>(begin);
        const auto last = indices.begin() + static_cast<std::ptrdiff_t>(end);
        const std::size_t count = end - begin;
        double sum = 0.0, sum_sq = 0.0;
        for (auto it = first; it != last; ++it) {
            const double y = targets[*it];
            sum += y;
            sum_sq += y * y;
        }
        const double node_mean = sum / static_cast<double>(count);
        const double node_sse = sum_sq - sum * node_mean;

        double best_gain = 0.0, best_threshold = 0.0;
        if (node_depth < config_.maxDepth &&
            count >= config_.minSamplesSplit && node_sse > 1e-18) {
            std::vector<std::size_t> sorted(first, last);
            if (byRow_) {
                std::ranges::sort(sorted, [&](std::size_t a, std::size_t b) {
                    return x[a] < x[b] || (!(x[b] < x[a]) && a < b);
                });
            } else {
                std::sort(sorted.begin(), sorted.end(),
                          [&](std::size_t a, std::size_t b) {
                              return x[a] < x[b];
                          });
            }
            double left_sum = 0.0, left_sq = 0.0;
            for (std::size_t k = 0; k + 1 < count; ++k) {
                const double y = targets[sorted[k]];
                left_sum += y;
                left_sq += y * y;
                const std::size_t left_n = k + 1;
                const std::size_t right_n = count - left_n;
                const double x_here = x[sorted[k]];
                if (left_n < config_.minSamplesLeaf ||
                    right_n < config_.minSamplesLeaf ||
                    x[sorted[k + 1]] <= x_here)
                    continue;
                const double right_sum = sum - left_sum;
                const double right_sq = sum_sq - left_sq;
                const double left_sse =
                    left_sq - left_sum * left_sum / static_cast<double>(left_n);
                const double right_sse =
                    right_sq -
                    right_sum * right_sum / static_cast<double>(right_n);
                const double gain = node_sse - left_sse - right_sse;
                if (gain > best_gain) {
                    best_gain = gain;
                    best_threshold = x_here;
                }
            }
        }
        if (best_gain <= 0.0) {
            leaves_.push_back(node_mean);
            depth_ = std::max(depth_, node_depth);
            return;
        }
        const auto mid_it = std::partition(first, last, [&](std::size_t s) {
            return x[s] <= best_threshold;
        });
        const auto mid = static_cast<std::size_t>(mid_it - indices.begin());
        build(x, targets, indices, begin, mid, node_depth + 1);
        thresholds_.push_back(best_threshold);
        build(x, targets, indices, mid, end, node_depth + 1);
    }

    DecisionTreeConfig config_;
    bool byRow_;
    std::vector<double> thresholds_;
    std::vector<double> leaves_;
    std::size_t depth_ = 0;
};

/** Every distinct x, every midpoint between neighbours, +-inf and NaN. */
std::vector<double>
probesFor(const std::vector<double> &x)
{
    std::vector<double> probes(x);
    std::ranges::sort(probes);
    probes.erase(std::unique(probes.begin(), probes.end()), probes.end());
    const std::size_t distinct = probes.size();
    for (std::size_t i = 0; i + 1 < distinct; ++i)
        probes.push_back(0.5 * (probes[i] + probes[i + 1]));
    probes.push_back(-std::numeric_limits<double>::infinity());
    probes.push_back(std::numeric_limits<double>::infinity());
    probes.push_back(std::numeric_limits<double>::quiet_NaN());
    return probes;
}

/** Index of the first probe whose predictions differ in any bit, or
 *  probes.size(). Thresholds of a -0.0/+0.0 tie may differ in sign
 *  only, which no prediction can see, so predictions are compared. */
template <typename A, typename B>
std::size_t
firstMismatch(const A &a, const B &b, const std::vector<double> &probes)
{
    for (std::size_t i = 0; i < probes.size(); ++i) {
        if (std::bit_cast<std::uint64_t>(a.predict(probes[i])) !=
            std::bit_cast<std::uint64_t>(b.predict(probes[i])))
            return i;
    }
    return probes.size();
}

enum class Targets
{
    LogCrosstalk, ///< y near -10, the fitted log-crosstalk range
    Integer,      ///< small integers: every sum exact, gains tie exactly
    Offset,       ///< 1e8 + noise: gains drown in rounding, forcing rescans
};

struct Data
{
    std::vector<double> x, y;
};

/** @p n samples on @p k distinct x values, 0.0 among them with either
 *  sign, so every node sorts and scans runs of equal keys. */
Data
tieHeavy(std::uint64_t seed, std::size_t n, std::size_t k, Targets targets)
{
    Prng prng(seed);
    Data d;
    for (std::size_t i = 0; i < n; ++i) {
        const auto level = static_cast<double>(prng.uniformInt(k));
        double x = (level - static_cast<double>(k / 2)) * 0.375;
        if (x == 0.0 && prng.bernoulli(0.5))
            x = -0.0;
        d.x.push_back(x);
        switch (targets) {
        case Targets::LogCrosstalk:
            d.y.push_back(-10.0 + 0.8 * std::sin(x) + prng.gaussian(0.0, 0.4));
            break;
        case Targets::Integer:
            d.y.push_back(
                -4.0 + static_cast<double>(prng.uniformInt(9)));
            break;
        case Targets::Offset:
            d.y.push_back(1e8 + prng.gaussian(0.0, 1.0));
            break;
        }
    }
    return d;
}

/** Bootstrap bag of n draws from n rows. */
std::vector<std::size_t>
bagOf(std::size_t n, Prng &prng)
{
    std::vector<std::size_t> bag(n);
    for (std::size_t &draw : bag)
        draw = prng.uniformInt(n);
    return bag;
}

std::uint64_t
splitRescans()
{
    const auto counters = metrics::Registry::global().counters();
    const auto it = counters.find("noise.split_rescans");
    return it == counters.end() ? 0 : it->second;
}

/** Fit @p d with the presorted tree and the oracle, bagged through
 *  @p bag (empty: every row once), and compare them. */
void
expectMatchesOracle(const Data &d, const DecisionTreeConfig &config,
                    const std::vector<std::size_t> &bag,
                    const std::string &label)
{
    DecisionTree tree(config);
    tree.fit(d.x, d.y, bag, sortRowsByX(d.x));
    OracleTree oracle(config, false);
    oracle.fit(d.x, d.y, bag);
    const std::vector<double> probes = probesFor(d.x);
    const std::size_t at = firstMismatch(tree, oracle, probes);
    EXPECT_EQ(at, probes.size())
        << label << ": first differs at x = " << probes[at];
    EXPECT_EQ(tree.nodeCount(), oracle.nodeCount()) << label;
    EXPECT_EQ(tree.depth(), oracle.depth()) << label;
}

TEST(PresortedFit, MatchesPerNodeSortOracleOnTieHeavyData)
{
    const std::uint64_t rescans_before = splitRescans();
    struct Shape
    {
        std::size_t depth, minLeaf;
    };
    const Shape shapes[] = {{1, 1}, {3, 2}, {8, 3}, {12, 1}, {12, 5}, {5, 4}};
    std::uint64_t seed = 0xD1FF;
    for (const std::size_t n : {6, 7, 13, 40, 97, 256, 1000, 2016}) {
        for (const Targets targets :
             {Targets::LogCrosstalk, Targets::Integer, Targets::Offset}) {
            const std::size_t k = 8 + (seed % 5) * 8; // 8 to 40 values
            const Data d = tieHeavy(++seed, n, k, targets);
            Prng bagging(seed);
            for (const Shape &shape : shapes) {
                DecisionTreeConfig config;
                config.maxDepth = shape.depth;
                config.minSamplesLeaf = shape.minLeaf;
                config.minSamplesSplit = 2 * shape.minLeaf;
                const std::string label =
                    "seed " + std::to_string(seed) + " n " +
                    std::to_string(n) + " depth " +
                    std::to_string(shape.depth) + " min leaf " +
                    std::to_string(shape.minLeaf);
                expectMatchesOracle(d, config, {}, label + " unbagged");
                expectMatchesOracle(d, config, bagOf(n, bagging),
                                    label + " bagged");
            }
        }
    }
    // The offset targets leave most gains inside the rounding bound, so
    // the fallback ran; the other targets mostly certify.
    EXPECT_GT(splitRescans(), rescans_before);
}

/** @p k groups at x = 0..k-1; group g and group k-1-g hold the same
 *  targets, in another order. Rows are shuffled. */
Data
mirrorGroups(std::uint64_t seed, std::size_t k)
{
    Prng prng(seed);
    std::vector<std::pair<double, double>> rows;
    for (std::size_t g = 0; g < (k + 1) / 2; ++g) {
        std::vector<double> ys(1 + prng.uniformInt(std::size_t{6}));
        for (double &y : ys)
            y = -10.0 + prng.gaussian(0.0, 1.0);
        for (const double y : ys)
            rows.emplace_back(static_cast<double>(g), y);
        if (k - 1 - g != g) {
            prng.shuffle(ys);
            for (const double y : ys)
                rows.emplace_back(static_cast<double>(k - 1 - g), y);
        }
    }
    prng.shuffle(rows);
    Data d;
    for (const auto &[x, y] : rows) {
        d.x.push_back(x);
        d.y.push_back(y);
    }
    return d;
}

TEST(PresortedFit, MirrorGroupsWithEqualGainsKeepTheFirstBest)
{
    // Each boundary and its mirror have the same exact gain, so which
    // one a scan ranks first is decided by rounding alone. The
    // reference keeps the leftmost of equal computed gains; a scan in
    // another order must reach the same split. A fit that trusts the
    // best gain without the runner-up gap fails some of these seeds.
    DecisionTreeConfig config;
    config.minSamplesLeaf = 1;
    config.minSamplesSplit = 2;
    for (const std::size_t depth : {1, 4, 12}) {
        config.maxDepth = depth;
        for (std::uint64_t seed = 1; seed <= 40; ++seed) {
            for (const std::size_t k : {6, 7, 10, 15}) {
                expectMatchesOracle(mirrorGroups(seed, k), config, {},
                                    "seed " + std::to_string(seed) +
                                        " k " + std::to_string(k) +
                                        " depth " + std::to_string(depth));
            }
        }
    }
}

TEST(PresortedFit, CertificateIsNeededOnThisCase)
{
    // A seeded case where the presorted scan trusted alone (sorted by
    // (x, row), no certificate) picks a different split than the
    // per-node sort: a fit that skips the rescan fails here.
    DecisionTreeConfig config;
    config.maxDepth = 12;
    config.minSamplesLeaf = 1;
    config.minSamplesSplit = 2;
    const Data d = tieHeavy(1, 200, 16, Targets::Offset);
    const std::vector<double> probes = probesFor(d.x);
    OracleTree oracle(config, false), scan_alone(config, true);
    oracle.fit(d.x, d.y, {});
    scan_alone.fit(d.x, d.y, {});
    ASSERT_LT(firstMismatch(oracle, scan_alone, probes), probes.size())
        << "the case no longer tells the scan alone from the oracle";
    expectMatchesOracle(d, config, {}, "certificate case");
}

TEST(PresortedFit, ForestMatchesOracleForest)
{
    // RandomForest draws one seed per tree, then n draws per bag; the
    // oracle forest replays those draws and averages in tree order.
    for (const std::size_t n : {40, 500, 2016}) {
        for (const Targets targets :
             {Targets::LogCrosstalk, Targets::Integer, Targets::Offset}) {
            const Data d = tieHeavy(n * 31 + static_cast<std::size_t>(targets),
                                    n, 24, targets);
            const std::vector<double> probes = probesFor(d.x);
            for (const std::size_t depth : {1, 8, 12}) {
                RandomForestConfig config;
                config.treeCount = 9;
                config.tree.maxDepth = depth;
                config.tree.minSamplesLeaf = depth == 12 ? 1 : 3;
                config.tree.minSamplesSplit = 2 * config.tree.minSamplesLeaf;
                RandomForest forest(config);
                Prng prng(n + depth);
                forest.fit(d.x, d.y, prng);

                std::vector<OracleTree> oracles;
                Prng replay(n + depth);
                for (std::size_t t = 0; t < config.treeCount; ++t) {
                    Prng local(replay.next());
                    oracles.emplace_back(config.tree, false);
                    oracles.back().fit(d.x, d.y, bagOf(n, local));
                }
                for (const double p : probes) {
                    double sum = 0.0;
                    for (const OracleTree &oracle : oracles)
                        sum += oracle.predict(p);
                    const double expected =
                        sum / static_cast<double>(oracles.size());
                    ASSERT_EQ(std::bit_cast<std::uint64_t>(forest.predict(p)),
                              std::bit_cast<std::uint64_t>(expected))
                        << "n " << n << " depth " << depth << " x " << p;
                }
            }
        }
    }
}

} // namespace
} // namespace youtiao
