/**
 * @file
 * Parsing and comparison of bench perf records (`BENCH_<name>.json`).
 *
 * The counterpart to metrics::jsonReport: loads a record written by a
 * bench run back into structured form and compares two records for
 * wall-clock regressions, so CI can fail a PR whose tracked phases got
 * slower than a committed baseline (tools/perf_check.cpp). Notable
 * improvements are reported too, prompting a baseline refresh instead
 * of letting `bench/baselines/` go silently stale. JSON parsing is the
 * shared common/json.hpp reader.
 */

#ifndef YOUTIAO_COMMON_PERF_RECORD_HPP
#define YOUTIAO_COMMON_PERF_RECORD_HPP

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/metrics.hpp"

namespace youtiao {

/** One histogram entry of a perf record. Quantiles are the writer's
 *  derived values; `buckets` maps log2 bucket index -> sample count
 *  (see metrics::HistogramStats). */
struct HistogramRecord
{
    std::uint64_t count = 0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    std::map<int, std::uint64_t> buckets;
};

/** One watchdog snapshot of a perf-5 record (common/watchdog.hpp). */
struct ResourceSample
{
    double tsSeconds = 0.0;
    std::uint64_t rssBytes = 0;
    double cpuSeconds = 0.0;
    std::uint64_t astarArenaBytes = 0;
    std::uint64_t poolQueueDepth = 0;
};

/** One parsed `BENCH_<name>.json` record (schema youtiao-perf-4 or -5).
 *  Earlier writers also stamped `config.simd_level` and
 *  `config.cpu_features`; the parser ignores both. */
struct PerfRecord
{
    std::string schema;
    std::string benchmark;
    std::map<std::string, metrics::PhaseStats> phases;
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, HistogramRecord> histograms;
    /** Peak RSS from the config block; nullopt when the record carries
     *  JSON null (platform could not measure) or omits the field.
     *  Null means "not comparable", never a measured zero. */
    std::optional<std::uint64_t> peakRssBytes;
    /** Watchdog time series of a perf-5 record; empty when the record
     *  predates perf-5 or the watchdog never ran. */
    std::vector<ResourceSample> resourceSamples;
    /** Phase-budget violations the watchdog observed (perf-5). */
    std::uint64_t watchdogStalls = 0;
};

/**
 * Parse @p json as a perf record. Throws ConfigError on malformed JSON,
 * a missing or unaccepted schema, phase entries without numeric
 * seconds, or a count that is not an integer in uint64 range.
 */
PerfRecord parsePerfRecord(const std::string &json);

/** Read and parse the record at @p path. Throws ConfigError on failure. */
PerfRecord loadPerfRecord(const std::string &path);

/** One phase whose wall time moved between baseline and current. */
struct PhaseDelta
{
    std::string phase;
    double baselineSeconds = 0.0;
    double currentSeconds = 0.0;
    /** currentSeconds / baselineSeconds. */
    double ratio = 0.0;
};

/** Result of comparing a current record against a baseline. */
struct PerfComparison
{
    /** Phases slower than the allowed ratio, worst first. */
    std::vector<PhaseDelta> regressions;
    /** Phases faster than the mirrored budget (current below
     *  baseline * (1 - max_regression)), best (fastest ratio) first.
     *  These never fail a check; they prompt a baseline refresh. */
    std::vector<PhaseDelta> improvements;
    /** Phases compared (present in both, above the time floor). */
    std::size_t comparedPhases = 0;
    /** Baseline phases above the floor that current never recorded. */
    std::vector<std::string> missingPhases;
};

/**
 * Compare @p current against @p baseline: every baseline phase with at
 * least @p min_seconds of wall time is checked, and phases whose current
 * time exceeds baseline * (1 + @p max_regression) are reported as
 * regressions; phases below baseline * (1 - @p max_regression) are
 * reported as improvements (the baseline is stale on the fast side).
 * Phases below the floor are skipped (their timings are noise), as are
 * phases absent from the baseline (new phases cannot regress).
 */
PerfComparison comparePerfRecords(const PerfRecord &baseline,
                                  const PerfRecord &current,
                                  double max_regression,
                                  double min_seconds);

} // namespace youtiao

#endif // YOUTIAO_COMMON_PERF_RECORD_HPP
