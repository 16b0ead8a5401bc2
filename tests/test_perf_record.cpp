#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/perf_record.hpp"

namespace youtiao {
namespace {

TEST(PerfRecord, ParsesLiveJsonReport)
{
    // Round-trip: whatever metrics::jsonReport emits must parse back
    // into the same phase and counter values, so perf_check can always
    // read records the bench harness writes.
    metrics::Registry::global().reset();
    {
        const metrics::ScopedTimer timer("phase.alpha");
        metrics::count("counter.rows", 42);
    }
    {
        const metrics::ScopedTimer timer("phase.beta");
    }
    metrics::observe("hist.latency", 0.5);
    metrics::observe("hist.latency", 2.0);
    const PerfRecord record =
        parsePerfRecord(metrics::jsonReport("round_trip"));
    EXPECT_EQ(record.schema, "youtiao-perf-5");
    EXPECT_EQ(record.benchmark, "round_trip");
    ASSERT_EQ(record.phases.count("phase.alpha"), 1u);
    ASSERT_EQ(record.phases.count("phase.beta"), 1u);
    EXPECT_EQ(record.phases.at("phase.alpha").calls, 1u);
    EXPECT_GE(record.phases.at("phase.alpha").seconds, 0.0);
    ASSERT_EQ(record.counters.count("counter.rows"), 1u);
    EXPECT_EQ(record.counters.at("counter.rows"), 42u);
    ASSERT_EQ(record.histograms.count("hist.latency"), 1u);
    const HistogramRecord &hist = record.histograms.at("hist.latency");
    EXPECT_EQ(hist.count, 2u);
    EXPECT_DOUBLE_EQ(hist.min, 0.5);
    EXPECT_DOUBLE_EQ(hist.max, 2.0);
    EXPECT_LE(hist.p50, hist.p99);
    std::uint64_t bucket_total = 0;
    for (const auto &[index, samples] : hist.buckets)
        bucket_total += samples;
    EXPECT_EQ(bucket_total, 2u);
    metrics::Registry::global().reset();
}

PerfRecord
makeRecord(double alpha_seconds, double beta_seconds)
{
    PerfRecord r;
    r.schema = "youtiao-perf-5";
    r.benchmark = "synthetic";
    r.phases["phase.alpha"] = metrics::PhaseStats{alpha_seconds, 3};
    r.phases["phase.beta"] = metrics::PhaseStats{beta_seconds, 1};
    return r;
}

TEST(PerfRecord, ComparisonFlagsRegressionsPastBudget)
{
    const PerfRecord base = makeRecord(1.0, 2.0);
    const PerfRecord slower = makeRecord(1.2, 2.8);
    // +20% alpha sits inside a 25% budget; +40% beta does not.
    const PerfComparison cmp =
        comparePerfRecords(base, slower, 0.25, 0.01);
    EXPECT_EQ(cmp.comparedPhases, 2u);
    ASSERT_EQ(cmp.regressions.size(), 1u);
    EXPECT_EQ(cmp.regressions.front().phase, "phase.beta");
    EXPECT_NEAR(cmp.regressions.front().ratio, 1.4, 1e-12);

    const PerfComparison ok = comparePerfRecords(base, slower, 0.5, 0.01);
    EXPECT_TRUE(ok.regressions.empty());
}

TEST(PerfRecord, ComparisonSortsWorstRegressionFirst)
{
    const PerfRecord base = makeRecord(1.0, 1.0);
    const PerfRecord slower = makeRecord(1.5, 3.0);
    const PerfComparison cmp =
        comparePerfRecords(base, slower, 0.25, 0.01);
    ASSERT_EQ(cmp.regressions.size(), 2u);
    EXPECT_EQ(cmp.regressions[0].phase, "phase.beta");
    EXPECT_EQ(cmp.regressions[1].phase, "phase.alpha");
}

TEST(PerfRecord, MinSecondsFloorSkipsNoisyPhases)
{
    // A 5x blowup on a sub-floor phase is timing noise, not a
    // regression; the floor must keep it out of the comparison.
    const PerfRecord base = makeRecord(0.002, 1.0);
    PerfRecord current = makeRecord(0.010, 1.0);
    const PerfComparison cmp =
        comparePerfRecords(base, current, 0.25, 0.01);
    EXPECT_EQ(cmp.comparedPhases, 1u);
    EXPECT_TRUE(cmp.regressions.empty());
}

TEST(PerfRecord, MissingPhaseWarnsInsteadOfFailing)
{
    const PerfRecord base = makeRecord(1.0, 2.0);
    PerfRecord current = makeRecord(1.0, 2.0);
    current.phases.erase("phase.beta");
    const PerfComparison cmp =
        comparePerfRecords(base, current, 0.25, 0.01);
    EXPECT_EQ(cmp.comparedPhases, 1u);
    EXPECT_TRUE(cmp.regressions.empty());
    ASSERT_EQ(cmp.missingPhases.size(), 1u);
    EXPECT_EQ(cmp.missingPhases.front(), "phase.beta");
}

TEST(PerfRecord, ComparisonReportsNotableImprovements)
{
    const PerfRecord base = makeRecord(1.0, 2.0);
    // Alpha got 40% faster (past the mirrored 25% budget); beta only
    // 10% faster (inside it, so not notable).
    const PerfRecord faster = makeRecord(0.6, 1.8);
    const PerfComparison cmp =
        comparePerfRecords(base, faster, 0.25, 0.01);
    EXPECT_TRUE(cmp.regressions.empty());
    ASSERT_EQ(cmp.improvements.size(), 1u);
    EXPECT_EQ(cmp.improvements.front().phase, "phase.alpha");
    EXPECT_NEAR(cmp.improvements.front().ratio, 0.6, 1e-12);
}

TEST(PerfRecord, ComparisonSortsBestImprovementFirst)
{
    const PerfRecord base = makeRecord(1.0, 1.0);
    const PerfRecord faster = makeRecord(0.5, 0.25);
    const PerfComparison cmp =
        comparePerfRecords(base, faster, 0.25, 0.01);
    ASSERT_EQ(cmp.improvements.size(), 2u);
    EXPECT_EQ(cmp.improvements[0].phase, "phase.beta");
    EXPECT_EQ(cmp.improvements[1].phase, "phase.alpha");
}

TEST(PerfRecord, NullPeakRssMeansNotComparable)
{
    const PerfRecord record = parsePerfRecord(R"({
        "schema": "youtiao-perf-5",
        "benchmark": "rssless",
        "config": {"threads": 1, "peak_rss_bytes": null},
        "phases": {},
        "counters": {}
    })");
    EXPECT_FALSE(record.peakRssBytes.has_value());
}

TEST(PerfRecord, ParsesHistogramBlock)
{
    const PerfRecord record = parsePerfRecord(R"({
        "schema": "youtiao-perf-5",
        "benchmark": "hist",
        "phases": {},
        "counters": {},
        "histograms": {
            "routing.net_seconds": {
                "count": 3, "min": 0.25, "max": 4.0,
                "p50": 0.5, "p90": 3.0, "p99": 4.0,
                "buckets": {"29": 1, "31": 1, "33": 1}
            }
        }
    })");
    ASSERT_EQ(record.histograms.count("routing.net_seconds"), 1u);
    const HistogramRecord &h =
        record.histograms.at("routing.net_seconds");
    EXPECT_EQ(h.count, 3u);
    EXPECT_DOUBLE_EQ(h.min, 0.25);
    EXPECT_DOUBLE_EQ(h.max, 4.0);
    EXPECT_EQ(h.buckets.at(29), 1u);
    EXPECT_EQ(h.buckets.at(33), 1u);
}

TEST(PerfRecord, RejectsBadHistogramBucketKeys)
{
    EXPECT_THROW(parsePerfRecord(R"({
        "schema": "youtiao-perf-5",
        "benchmark": "hist",
        "phases": {}, "counters": {},
        "histograms": {"h": {"count": 1, "min": 1, "max": 1,
            "p50": 1, "p90": 1, "p99": 1,
            "buckets": {"not-a-number": 1}}}
    })"),
                 ConfigError);
    EXPECT_THROW(parsePerfRecord(R"({
        "schema": "youtiao-perf-5",
        "benchmark": "hist",
        "phases": {}, "counters": {},
        "histograms": {"h": {"count": 1, "min": 1, "max": 1,
            "p50": 1, "p90": 1, "p99": 1,
            "buckets": {"64": 1}}}
    })"),
                 ConfigError);
}

TEST(PerfRecord, ParsesPerf4SimdFields)
{
    // The committed perf-4 baselines stamp a SIMD level and CPU
    // features; the parser accepts both and ignores them.
    const PerfRecord record = parsePerfRecord(R"({
        "schema": "youtiao-perf-4",
        "benchmark": "simd",
        "config": {"threads": 1, "peak_rss_bytes": 1,
                   "simd_level": "avx2",
                   "cpu_features": "avx2 fma"},
        "phases": {"phase.alpha": {"seconds": 0.5, "calls": 2}},
        "counters": {"counter.rows": 7}
    })");
    EXPECT_EQ(record.schema, "youtiao-perf-4");
    ASSERT_TRUE(record.peakRssBytes.has_value());
    EXPECT_EQ(*record.peakRssBytes, 1u);
    EXPECT_EQ(record.phases.at("phase.alpha").calls, 2u);
    EXPECT_EQ(record.counters.at("counter.rows"), 7u);
}

TEST(PerfRecord, RejectsRetiredSchemas)
{
    for (const char *schema :
         {"youtiao-perf-1", "youtiao-perf-2", "youtiao-perf-3"}) {
        EXPECT_THROW(parsePerfRecord(std::string(R"({"schema": ")") +
                                     schema + R"(",
            "benchmark": "old", "config": {"threads": 1},
            "phases": {}, "counters": {}})"),
                     ConfigError)
            << schema;
    }
}

TEST(PerfRecord, RejectsFractionalAndOutOfRangeCounts)
{
    // A plain cast read 1e20 calls as 0 (undefined behaviour) and 2.5
    // as 2; every count must be an exact integer in uint64 range.
    const auto record = [](const std::string &phases,
                           const std::string &counters) {
        return R"({"schema": "youtiao-perf-5", "benchmark": "x",
            "phases": {)" + phases + R"(}, "counters": {)" + counters +
               "}}";
    };
    EXPECT_THROW(parsePerfRecord(record(
                     R"("p": {"seconds": 1, "calls": 1e20})", "")),
                 ConfigError);
    EXPECT_THROW(parsePerfRecord(record(
                     R"("p": {"seconds": 1, "calls": 2.5})", "")),
                 ConfigError);
    EXPECT_THROW(parsePerfRecord(record("", R"("c": 2.5)")), ConfigError);
    EXPECT_THROW(parsePerfRecord(record("", R"("c": -1)")), ConfigError);
    // 2^64 is one past the largest count.
    EXPECT_THROW(parsePerfRecord(
                     record("", R"("c": 18446744073709551616)")),
                 ConfigError);
    const PerfRecord largest = parsePerfRecord(
        record("", R"("c": 18446744073709549568)"));
    EXPECT_EQ(largest.counters.at("c"), 18446744073709549568u);
}

TEST(PerfRecord, RejectsMalformedRecords)
{
    EXPECT_THROW(parsePerfRecord(""), ConfigError);
    EXPECT_THROW(parsePerfRecord("{"), ConfigError);
    EXPECT_THROW(parsePerfRecord("{}"), ConfigError);
    EXPECT_THROW(parsePerfRecord(R"({"schema": "unknown-schema",
        "benchmark": "x", "phases": {}, "counters": {}})"),
                 ConfigError);
    // Phase seconds must be a non-negative number.
    EXPECT_THROW(parsePerfRecord(R"({"schema": "youtiao-perf-5",
        "benchmark": "x",
        "phases": {"p": {"seconds": -1.0, "calls": 1}},
        "counters": {}})"),
                 ConfigError);
    EXPECT_THROW(parsePerfRecord(R"({"schema": "youtiao-perf-5",
        "benchmark": "x",
        "phases": {"p": {"seconds": "fast", "calls": 1}},
        "counters": {}})"),
                 ConfigError);
    // Trailing junk after the closing brace is a truncated/concatenated
    // record, not a valid one.
    EXPECT_THROW(parsePerfRecord(R"({"schema": "youtiao-perf-5",
        "benchmark": "x", "phases": {}, "counters": {}} trailing)"),
                 ConfigError);
}

TEST(PerfRecord, LoadReportsPathOnBadFiles)
{
    try {
        loadPerfRecord("/nonexistent/BENCH_missing.json");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("BENCH_missing.json"),
                  std::string::npos);
    }
}

TEST(PerfRecord, ComparisonRejectsBadBudgets)
{
    const PerfRecord base = makeRecord(1.0, 1.0);
    EXPECT_THROW(comparePerfRecords(base, base, -0.1, 0.01), ConfigError);
    EXPECT_THROW(comparePerfRecords(base, base, 0.25, -1.0), ConfigError);
}

} // namespace
} // namespace youtiao
