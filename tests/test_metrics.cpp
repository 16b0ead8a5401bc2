/**
 * @file
 * Metrics-layer suite: timer/counter semantics, registry reset, the
 * JSON perf record, and the instrumentation half of the determinism
 * contract -- instrumented pipeline output must be bit-identical at any
 * thread count, because metrics observe the computation and never feed
 * back into it.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "chip/topology_builder.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/runledger.hpp"
#include "core/serialization.hpp"
#include "core/youtiao.hpp"

namespace youtiao {
namespace {

TEST(Metrics, CounterAccumulates)
{
    metrics::Registry registry;
    registry.addCounter("a", 3);
    registry.addCounter("a", 4);
    registry.addCounter("b", 1);
    const auto counters = registry.counters();
    EXPECT_EQ(counters.at("a"), 7u);
    EXPECT_EQ(counters.at("b"), 1u);
}

TEST(Metrics, PhaseAccumulatesSecondsAndCalls)
{
    metrics::Registry registry;
    registry.addPhase("p", 0.25);
    registry.addPhase("p", 0.5);
    const auto phases = registry.phases();
    EXPECT_DOUBLE_EQ(phases.at("p").seconds, 0.75);
    EXPECT_EQ(phases.at("p").calls, 2u);
}

TEST(Metrics, ScopedTimerRecordsOneCall)
{
    metrics::Registry registry;
    {
        const metrics::ScopedTimer timer("scoped", &registry);
    }
    const auto phases = registry.phases();
    ASSERT_EQ(phases.count("scoped"), 1u);
    EXPECT_EQ(phases.at("scoped").calls, 1u);
    EXPECT_GE(phases.at("scoped").seconds, 0.0);
}

TEST(Metrics, ResetClearsEverything)
{
    metrics::Registry registry;
    registry.addPhase("p", 1.0);
    registry.addCounter("c", 5);
    registry.reset();
    EXPECT_TRUE(registry.phases().empty());
    EXPECT_TRUE(registry.counters().empty());
    // The registry stays usable after a reset.
    registry.addCounter("c", 2);
    EXPECT_EQ(registry.counters().at("c"), 2u);
}

TEST(Metrics, CountersMergeAcrossPoolThreads)
{
    metrics::Registry registry;
    ThreadPool pool(4);
    constexpr std::size_t n = 10000;
    parallelFor(
        0, n, [&](std::size_t) { registry.addCounter("hits", 1); }, 1,
        &pool);
    EXPECT_EQ(registry.counters().at("hits"), n);
}

TEST(Metrics, TimersMergeAcrossPoolThreads)
{
    metrics::Registry registry;
    ThreadPool pool(4);
    constexpr std::size_t n = 64;
    parallelFor(
        0, n,
        [&](std::size_t) {
            const metrics::ScopedTimer timer("task", &registry);
        },
        1, &pool);
    EXPECT_EQ(registry.phases().at("task").calls, n);
}

/** The run record (common/runledger.hpp) of the global registry as it
 *  stands: the machine-readable form of the metrics. */
std::string
renderedRecord(const std::string &benchmark)
{
    runledger::Recorder recorder(benchmark);
    return recorder.finish();
}

TEST(Metrics, JsonReportHasSchemaConfigPhasesCounters)
{
    metrics::Registry::global().reset();
    {
        const metrics::ScopedTimer timer("json.phase");
    }
    metrics::count("json.counter", 42);
    const std::string json = renderedRecord("unit_test");
    EXPECT_NE(json.find("\"schema\":\"youtiao-perf-5\""),
              std::string::npos);
    EXPECT_EQ(json.find("simd_level"), std::string::npos);
    EXPECT_NE(json.find("\"benchmark\":\"unit_test\""),
              std::string::npos);
    EXPECT_NE(json.find("\"threads\":"), std::string::npos);
    EXPECT_NE(json.find("\"youtiao_threads_env\":"), std::string::npos);
    EXPECT_NE(json.find("\"build_type\":"), std::string::npos);
    EXPECT_NE(json.find("\"peak_rss_bytes\":"), std::string::npos);
    EXPECT_NE(json.find("\"json.phase\""), std::string::npos);
    EXPECT_NE(json.find("\"json.counter\":42"), std::string::npos);
    metrics::Registry::global().reset();
}

TEST(Metrics, JsonReportEscapesNames)
{
    metrics::Registry::global().reset();
    metrics::count("quote\"back\\slash", 1);
    const std::string json = renderedRecord("x");
    EXPECT_NE(json.find("quote\\\"back\\\\slash"), std::string::npos);
    metrics::Registry::global().reset();
}

TEST(Metrics, PhaseTableListsPhasesAndCounters)
{
    metrics::Registry::global().reset();
    {
        const metrics::ScopedTimer timer("table.phase");
    }
    metrics::count("table.counter", 7);
    const std::string table = metrics::phaseTable();
    EXPECT_NE(table.find("table.phase"), std::string::npos);
    EXPECT_NE(table.find("table.counter"), std::string::npos);
    metrics::Registry::global().reset();
}

TEST(Metrics, HistogramObserveTracksCountMinMax)
{
    metrics::HistogramStats h;
    h.observe(1.0);
    h.observe(4.0);
    h.observe(0.25);
    EXPECT_EQ(h.count, 3u);
    EXPECT_DOUBLE_EQ(h.min, 0.25);
    EXPECT_DOUBLE_EQ(h.max, 4.0);
}

TEST(Metrics, HistogramBucketEdgesBracketTheValue)
{
    for (double v : {1e-6, 0.5, 1.0, 3.0, 1024.0, 7.5e8}) {
        const std::size_t i = metrics::HistogramStats::bucketIndex(v);
        EXPECT_GE(v, metrics::HistogramStats::bucketLowerBound(i)) << v;
        EXPECT_LT(v, metrics::HistogramStats::bucketUpperBound(i)) << v;
    }
    // Zero, negatives, and NaN all land in the catch-all bucket.
    EXPECT_EQ(metrics::HistogramStats::bucketIndex(0.0), 0u);
    EXPECT_EQ(metrics::HistogramStats::bucketIndex(-3.0), 0u);
}

TEST(Metrics, HistogramQuantilesAreClampedAndOrdered)
{
    metrics::HistogramStats h;
    for (int i = 1; i <= 100; ++i)
        h.observe(static_cast<double>(i));
    const double p50 = h.quantile(0.5);
    const double p90 = h.quantile(0.9);
    const double p99 = h.quantile(0.99);
    EXPECT_LE(h.min, p50);
    EXPECT_LE(p50, p90);
    EXPECT_LE(p90, p99);
    EXPECT_LE(p99, h.max);
    EXPECT_GE(h.quantile(0.0), h.min);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), h.max);
}

TEST(Metrics, HistogramQuantilesOfEmptyHistogramAreZero)
{
    // An empty histogram has no populated bucket to interpolate in;
    // every percentile must come back as the defined 0, not garbage.
    const metrics::HistogramStats h;
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.9), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.0);
}

TEST(Metrics, HistogramQuantilesOfSingleObservationAreTheObservation)
{
    for (double v : {0.0, 1e-9, 3.5, 1024.0}) {
        metrics::HistogramStats h;
        h.observe(v);
        EXPECT_DOUBLE_EQ(h.quantile(0.5), v) << v;
        EXPECT_DOUBLE_EQ(h.quantile(0.9), v) << v;
        EXPECT_DOUBLE_EQ(h.quantile(0.99), v) << v;
        EXPECT_DOUBLE_EQ(h.quantile(0.0), v) << v;
        EXPECT_DOUBLE_EQ(h.quantile(1.0), v) << v;
    }
}

TEST(Metrics, HistogramMergeIsOrderIndependent)
{
    // Three shard-like pieces merged in every order must agree bit for
    // bit -- the property the registry's determinism contract rests on.
    metrics::HistogramStats a, b, c;
    for (double v : {0.001, 0.5, 2.0})
        a.observe(v);
    for (double v : {3.0, 300.0})
        b.observe(v);
    c.observe(1e-12); // catch-all bucket
    metrics::HistogramStats abc = a;
    abc.merge(b);
    abc.merge(c);
    metrics::HistogramStats cba = c;
    cba.merge(b);
    cba.merge(a);
    EXPECT_EQ(abc.count, cba.count);
    EXPECT_EQ(abc.buckets, cba.buckets);
    // Bit-identical, not just approximately equal.
    EXPECT_EQ(std::memcmp(&abc.min, &cba.min, sizeof abc.min), 0);
    EXPECT_EQ(std::memcmp(&abc.max, &cba.max, sizeof abc.max), 0);
    EXPECT_DOUBLE_EQ(abc.quantile(0.5), cba.quantile(0.5));
}

TEST(Metrics, HistogramsMergeAcrossPoolThreads)
{
    metrics::Registry registry;
    ThreadPool pool(4);
    constexpr std::size_t n = 1000;
    parallelFor(
        0, n,
        [&](std::size_t i) {
            registry.addHistogram("h",
                                  static_cast<double>(i % 16) + 1.0);
        },
        1, &pool);
    const auto merged = registry.histograms();
    ASSERT_EQ(merged.count("h"), 1u);
    EXPECT_EQ(merged.at("h").count, n);
    EXPECT_DOUBLE_EQ(merged.at("h").min, 1.0);
    EXPECT_DOUBLE_EQ(merged.at("h").max, 16.0);
}

TEST(Metrics, JsonReportCarriesHistogramBlock)
{
    metrics::Registry::global().reset();
    metrics::observe("json.hist", 2.0);
    metrics::observe("json.hist", 8.0);
    const std::string json = renderedRecord("unit_test");
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
    EXPECT_NE(json.find("\"json.hist\""), std::string::npos);
    EXPECT_NE(json.find("\"p50\""), std::string::npos);
    EXPECT_NE(json.find("\"p99\""), std::string::npos);
    EXPECT_NE(json.find("\"buckets\""), std::string::npos);
    metrics::Registry::global().reset();
}

TEST(Metrics, PhaseTableListsHistograms)
{
    metrics::Registry::global().reset();
    metrics::observe("table.hist", 5.0);
    const std::string table = metrics::phaseTable();
    EXPECT_NE(table.find("table.hist"), std::string::npos);
    metrics::Registry::global().reset();
}

/** Run @p fn with the global pool rebuilt at each thread count and
 *  restore the environment default afterwards. */
template <typename Fn>
auto
resultsAtThreadCounts(const std::vector<std::size_t> &counts, Fn &&fn)
{
    std::vector<decltype(fn())> results;
    results.reserve(counts.size());
    for (std::size_t threads : counts) {
        ThreadPool::setGlobalThreadCount(threads);
        results.push_back(fn());
    }
    ThreadPool::setGlobalThreadCount(0);
    return results;
}

TEST(Metrics, InstrumentedDesignBitIdenticalAcrossThreadCounts)
{
    const ChipTopology chip = makeSquareGrid(4, 4);
    Prng prng(7);
    const ChipCharacterization data = characterizeChip(chip, prng);
    YoutiaoConfig config;
    config.fit.forest.treeCount = 8;
    const auto designs = resultsAtThreadCounts(
        {1, 2, 4}, [&] {
            metrics::Registry::global().reset();
            const std::string text = designToString(
                YoutiaoDesigner(config).design(chip, data));
            // The run must also have recorded its pipeline phases.
            EXPECT_EQ(metrics::Registry::global().phases().count(
                          "design.xy_grouping"),
                      1u);
            return text;
        });
    EXPECT_EQ(designs[0], designs[1]);
    EXPECT_EQ(designs[0], designs[2]);
    metrics::Registry::global().reset();
}

} // namespace
} // namespace youtiao
