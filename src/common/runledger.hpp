/**
 * @file
 * The run record: one `youtiao-perf-5` JSON line per tool or bench
 * invocation (docs/FILE_FORMATS.md, "Run record"), its parser, the
 * pairwise comparison tools/perf_check gates on, and the longitudinal
 * trend analysis tools/perf_trend builds on.
 *
 * A Recorder constructed at the top of main() renders, when the run
 * finishes, one compact newline-terminated record of what ran (argv,
 * git sha, build type, thread config, input hashes), what it cost
 * (wall/CPU seconds, peak RSS, per-phase timings, counters and
 * histograms) and how it ended (exit status, notes). The record
 * is rendered once: a bench writes those bytes to `BENCH_<name>.json`
 * (bench_common.hpp), and when $YOUTIAO_RUN_LEDGER names a file the
 * same bytes are appended there, so a ledger is a JSONL file of
 * records that perf_check and perf_trend read with one parser.
 *
 * The append is a single O_APPEND write of one complete line, so
 * concurrent processes sharing a ledger never interleave records.
 * Recording observes the run and never feeds back into it.
 */

#ifndef YOUTIAO_COMMON_RUNLEDGER_HPP
#define YOUTIAO_COMMON_RUNLEDGER_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.hpp"

namespace youtiao::runledger {

/** FNV-1a 64-bit over @p bytes, rendered as 16 hex digits. The input
 *  provenance hash of records: stable across platforms and runs. */
std::string fnv1aHex(std::string_view bytes);

/** True when $YOUTIAO_RUN_LEDGER names a ledger file. */
bool ledgerConfigured();

/**
 * RAII writer of one run record. Construct it at the top of main();
 * attach hashes and notes as inputs are resolved and setExitStatus()
 * before returning. finish() (or the destructor) renders the record
 * from the global metrics registry and appends it to the ledger when
 * one is configured.
 */
class Recorder
{
  public:
    /** @p benchmark names the record ("table2_wiring", "youtiao_cli");
     *  argv[0], the volatile binary path, is not recorded. */
    explicit Recorder(std::string benchmark, int argc = 0,
                      const char *const *argv = nullptr);

    /** Finishes the record if finish() has not already. */
    ~Recorder();

    Recorder(const Recorder &) = delete;
    Recorder &operator=(const Recorder &) = delete;

    /** Attach input provenance: hashes["chip"] = fnv1aHex(...), ... */
    void setHash(const std::string &key, std::string value);

    /** setHash(key, fnv1aHex(bytes)) convenience. */
    void hashBytes(const std::string &key, std::string_view bytes);

    /** Append a degradation / outcome note. */
    void addNote(std::string note);

    /** Exit status recorded in the record (default 0). */
    void setExitStatus(int status);

    /**
     * Render the record (wall time since construction, getrusage CPU
     * time and peak RSS, and the registry's phases, counters and
     * histograms at this moment) and append it to the ledger when one
     * is configured. Idempotent: later calls return the same bytes and
     * write nothing. The result is one compact JSON line ending in a
     * newline.
     */
    const std::string &finish();

  private:
    std::string render() const;

    std::string benchmark_;
    std::vector<std::string> argv_;
    std::map<std::string, std::string> hashes_;
    std::vector<std::string> notes_;
    int exitStatus_ = 0;
    /** The rendered record; empty until finish(). */
    std::string record_;
    std::chrono::steady_clock::time_point start_;
    std::uint64_t startUnixMs_ = 0;
};

// ---- parsing and comparison (tools/perf_check) --------------------------

/** One histogram entry of a record. Quantiles are the writer's derived
 *  values; `buckets` maps log2 bucket index -> sample count (see
 *  metrics::HistogramStats). */
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

/**
 * One parsed record (schema youtiao-perf-5). Only schema, benchmark,
 * phases and counters are required; every other field keeps its
 * default when the record omits it. Fields it does not know, such as
 * the four that earlier perf-5 writers stamped and this one no longer
 * does (docs/FILE_FORMATS.md, "Run record"), are ignored.
 */
struct PerfRecord
{
    std::string schema;
    std::string benchmark;
    std::vector<std::string> argv;
    std::uint64_t startUnixMs = 0;
    double wallSeconds = 0.0;
    double cpuSeconds = 0.0;
    int exitStatus = 0;
    std::size_t threads = 0;
    /** Raw YOUTIAO_THREADS; nullopt when unset (JSON null). */
    std::optional<std::string> threadsEnv;
    std::string buildType;
    std::string gitSha;
    /** Peak RSS; nullopt when the record carries JSON null (platform
     *  could not measure) or omits the field. Null means "not
     *  comparable", never a measured zero. */
    std::optional<std::uint64_t> peakRssBytes;
    std::map<std::string, std::string> hashes;
    std::vector<std::string> notes;
    std::map<std::string, metrics::PhaseStats> phases;
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, HistogramRecord> histograms;
};

/**
 * Parse @p json as a record. Throws ConfigError on malformed JSON, a
 * missing or unaccepted schema, phase entries without numeric seconds,
 * or an integer field that is fractional or out of range.
 */
PerfRecord parsePerfRecord(const std::string &json);

/** Read and parse the record at @p path. Throws ConfigError on failure. */
PerfRecord loadPerfRecord(const std::string &path);

/** Parse a whole ledger (one record per non-empty line), in file order
 *  (oldest first). Throws ConfigError naming the bad line. */
std::vector<PerfRecord> parseLedger(const std::string &text);

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
 * least @p min_seconds of wall time is checked, and phases whose
 * current/baseline ratio exceeds 1 + @p max_regression are reported as
 * regressions; phases below baseline * (1 - @p max_regression) are
 * reported as improvements (the baseline is stale on the fast side).
 * Phases below the floor are skipped (their timings are noise), as are
 * phases absent from the baseline (new phases cannot regress).
 */
PerfComparison comparePerfRecords(const PerfRecord &baseline,
                                  const PerfRecord &current,
                                  double max_regression,
                                  double min_seconds);

// ---- trend analysis (tools/perf_trend) ----------------------------------

struct TrendOptions
{
    /** Latest/median ratio above 1 + maxRegression flags a phase. */
    double maxRegression = 0.25;
    /** Phases whose prior median is below this floor are noise, never
     *  flagged. */
    double minSeconds = 0.01;
};

/** Longitudinal view of one phase within one series' clean runs. */
struct PhaseTrend
{
    std::string phase;
    /** Clean runs that recorded this phase. */
    std::size_t observations = 0;
    /** Median of all observations but the latest (the drift baseline);
     *  0 when fewer than 2 prior observations exist. */
    double medianPriorSeconds = 0.0;
    /** p99 of the full series (tail behaviour across runs). */
    double p99Seconds = 0.0;
    double latestSeconds = 0.0;
    /** latestSeconds / medianPriorSeconds (0 when no baseline). */
    double ratio = 0.0;
    /** perf_check's regression test against the prior median, with at
     *  least 2 priors. */
    bool regressed = false;
};

/**
 * Trend summary of one series: the runs of one benchmark on identical
 * inputs. Every CLI record names the benchmark "youtiao_cli" whatever
 * the chip, so the input hashes (chip, seed, config) split the series;
 * records without hashes (bench perf records) form one series per
 * benchmark. Sorted by benchmark name, then hashes.
 */
struct BenchmarkTrend
{
    std::string benchmark;
    /** The input hashes every run of the series carries. */
    std::map<std::string, std::string> hashes;
    /** Runs with exit status 0: the only ones in the series. */
    std::size_t runs = 0;
    /** Runs left out for a non-zero exit status (cancelled, failed):
     *  their phase times are truncated, not slow. */
    std::size_t excludedRuns = 0;
    std::vector<PhaseTrend> phases; ///< sorted by phase name

    bool
    anyRegression() const
    {
        for (const PhaseTrend &p : phases)
            if (p.regressed)
                return true;
        return false;
    }
};

/** Aggregate @p records (ledger order = chronological) into per-series
 *  (benchmark, input hashes), per-phase trends over the runs that
 *  exited 0. */
std::vector<BenchmarkTrend> ledgerTrends(
    const std::vector<PerfRecord> &records,
    const TrendOptions &options = {});

/** Human-readable report of @p trends, regressions marked. A series
 *  with input hashes is headed by its benchmark and the first 8 hex
 *  digits of fnv1aHex over its "key=value\n" hash lines. */
std::string trendReport(const std::vector<BenchmarkTrend> &trends,
                        const TrendOptions &options = {});

} // namespace youtiao::runledger

#endif // YOUTIAO_COMMON_RUNLEDGER_HPP
