/**
 * @file
 * Run ledger: one structured manifest per tool invocation, appended to
 * a process-shared JSONL file, plus the longitudinal trend analysis
 * tools/perf_trend builds on.
 *
 * Perf records (BENCH_<name>.json) describe one run and perf_check
 * compares exactly two; neither answers "has design.route been creeping
 * up over the last fifty CI runs". The ledger does: when
 * $YOUTIAO_RUN_LEDGER names a file, every youtiao_cli, bench, and tool
 * invocation appends a single-line JSON manifest (schema
 * "youtiao-run-1", see docs/FILE_FORMATS.md) recording what ran (argv,
 * git sha, build type, thread config, input hashes), what
 * it cost (wall/CPU seconds, peak RSS, per-phase timings, histogram
 * percentiles), and how it ended (exit status, degradation notes).
 *
 * The append is a single O_APPEND write of one complete line, so
 * concurrent processes sharing a ledger never interleave records.
 * When the variable is unset the Recorder is a no-op; recording
 * observes the run and never feeds back into it.
 *
 * Usage: construct a Recorder at the top of main(), attach hashes and
 * notes as inputs are resolved, setExitStatus() before returning; the
 * destructor (or an explicit finish()) writes the manifest, capturing
 * the global metrics registry as the run's phase timings.
 */

#ifndef YOUTIAO_COMMON_RUNLEDGER_HPP
#define YOUTIAO_COMMON_RUNLEDGER_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.hpp"

namespace youtiao::runledger {

/** FNV-1a 64-bit over @p bytes, rendered as 16 hex digits. The input
 *  provenance hash of manifests: stable across platforms and runs. */
std::string fnv1aHex(std::string_view bytes);

/** True when $YOUTIAO_RUN_LEDGER names a ledger file. */
bool ledgerConfigured();

/**
 * RAII manifest writer for one tool invocation. Every method is a cheap
 * no-op when the ledger is not configured.
 */
class Recorder
{
  public:
    explicit Recorder(std::string tool, int argc = 0,
                      const char *const *argv = nullptr);

    /** Writes the manifest if finish() has not already. */
    ~Recorder();

    Recorder(const Recorder &) = delete;
    Recorder &operator=(const Recorder &) = delete;

    /** Attach input provenance: hashes["chip"] = fnv1aHex(...), ... */
    void setHash(const std::string &key, std::string value);

    /** setHash(key, fnv1aHex(bytes)) convenience. */
    void hashBytes(const std::string &key, std::string_view bytes);

    /** Append a degradation / outcome note (ordered, deduplicated by
     *  the caller if needed). */
    void addNote(std::string note);

    /** Exit status recorded in the manifest (default 0). */
    void setExitStatus(int status);

    /**
     * Append the manifest to the ledger now (idempotent; the destructor
     * calls it too). Captures wall time since construction, getrusage
     * CPU time and peak RSS, and the global metrics registry's phases,
     * counters, and histogram percentiles at this moment.
     */
    void finish();

    /** The manifest JSON line (no trailing newline) as finish() would
     *  write it right now. Exposed for tests. */
    std::string manifestJson() const;

  private:
    std::string tool_;
    std::vector<std::string> argv_;
    std::map<std::string, std::string> hashes_;
    std::vector<std::string> notes_;
    int exitStatus_ = 0;
    bool finished_ = false;
    std::chrono::steady_clock::time_point start_;
    std::int64_t startUnixMs_ = 0;
};

// ---- ledger parsing and trend analysis (tools/perf_trend) ---------------

/** One parsed youtiao-run-1 manifest. */
struct LedgerEntry
{
    std::string tool;
    std::vector<std::string> argv;
    std::string gitSha;
    std::string buildType;
    std::size_t threads = 0;
    int exitStatus = 0;
    double wallSeconds = 0.0;
    double cpuSeconds = 0.0;
    std::uint64_t peakRssBytes = 0;
    std::map<std::string, std::string> hashes;
    std::vector<std::string> notes;
    std::map<std::string, metrics::PhaseStats> phases;
    std::map<std::string, std::uint64_t> counters;
};

/** Parse one manifest line. Throws ConfigError on malformed input or a
 *  schema other than youtiao-run-1. */
LedgerEntry parseLedgerLine(const std::string &line);

/** Parse a whole ledger (one manifest per non-empty line), entries in
 *  file order (oldest first). Throws ConfigError naming the bad line. */
std::vector<LedgerEntry> parseLedger(const std::string &text);

struct TrendOptions
{
    /** Latest-vs-median ratio above 1 + maxRegression flags a phase. */
    double maxRegression = 0.25;
    /** Phases whose median is below this floor are noise, never
     *  flagged. */
    double minSeconds = 0.01;
};

/** Longitudinal view of one phase within one tool's run series. */
struct PhaseTrend
{
    std::string phase;
    /** Runs of the tool that recorded this phase. */
    std::size_t observations = 0;
    /** Median of all observations but the latest (the drift baseline);
     *  0 when fewer than 2 prior observations exist. */
    double medianPriorSeconds = 0.0;
    /** p99 of the full series (tail behaviour across runs). */
    double p99Seconds = 0.0;
    double latestSeconds = 0.0;
    /** latestSeconds / medianPriorSeconds (0 when no baseline). */
    double ratio = 0.0;
    /** Latest exceeded the prior median by more than the allowed
     *  regression, with at least 2 priors and a median above the time
     *  floor. */
    bool regressed = false;
};

/** Per-tool trend summary, tools sorted by name. */
struct ToolTrend
{
    std::string tool;
    std::size_t runs = 0;
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

/** Aggregate @p entries (ledger order = chronological) into per-tool,
 *  per-phase trends. */
std::vector<ToolTrend> ledgerTrends(const std::vector<LedgerEntry> &entries,
                                    const TrendOptions &options = {});

/** Human-readable report of @p trends, regressions marked. */
std::string trendReport(const std::vector<ToolTrend> &trends,
                        const TrendOptions &options = {});

} // namespace youtiao::runledger

#endif // YOUTIAO_COMMON_RUNLEDGER_HPP
