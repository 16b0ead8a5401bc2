#include "common/runledger.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "common/parallel.hpp"

namespace youtiao::runledger {

namespace {

/** Git revision baked in by CMake at configure time ("unknown" for
 *  tarball builds, see src/common/CMakeLists.txt). */
const char *
gitSha()
{
#if defined(YOUTIAO_GIT_SHA)
    if (YOUTIAO_GIT_SHA[0] != '\0')
        return YOUTIAO_GIT_SHA;
#endif
    return "unknown";
}

/** Build flavour baked in by CMake, so records are comparable across
 *  machines. */
const char *
buildType()
{
#if defined(YOUTIAO_BUILD_TYPE)
    if (YOUTIAO_BUILD_TYPE[0] != '\0')
        return YOUTIAO_BUILD_TYPE;
#endif
#if defined(NDEBUG)
    return "NDEBUG"; // optimized build without a named CMake flavour
#else
    return "unspecified";
#endif
}

/** Cumulative user+system CPU seconds of the process (0 where the
 *  platform cannot report it). */
double
processCpuSeconds()
{
#if defined(__unix__) || defined(__APPLE__)
    struct rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) == 0) {
        const auto toSec = [](const timeval &tv) {
            return static_cast<double>(tv.tv_sec) +
                   static_cast<double>(tv.tv_usec) * 1e-6;
        };
        return toSec(usage.ru_utime) + toSec(usage.ru_stime);
    }
#endif
    return 0.0;
}

/** Peak resident set size of the process in bytes, or nullopt where the
 *  platform cannot measure it (records write null, never a zero).
 *  ru_maxrss is kilobytes on Linux, bytes on macOS. */
std::optional<std::uint64_t>
peakRssBytes()
{
#if defined(__unix__) || defined(__APPLE__)
    struct rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return std::nullopt;
#if defined(__APPLE__)
    return static_cast<std::uint64_t>(usage.ru_maxrss);
#else
    return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
#endif
#else
    return std::nullopt;
#endif
}

const char *
ledgerPath()
{
    const char *path = std::getenv("YOUTIAO_RUN_LEDGER");
    return path != nullptr && *path != '\0' ? path : nullptr;
}

/**
 * Append @p line (newline-terminated) with a single write to an
 * O_APPEND descriptor, so concurrent processes sharing the ledger never
 * interleave records. Best effort: a ledger failure must never fail the
 * run it describes, so errors are logged and swallowed.
 */
void
appendLedgerLine(const char *path, const std::string &line)
{
    const int fd =
        ::open(path, O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (fd < 0) {
        log::warn("cannot open run ledger", {{"path", path}});
        return;
    }
    std::size_t off = 0;
    while (off < line.size()) {
        const ssize_t w =
            ::write(fd, line.data() + off, line.size() - off);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            log::warn("run ledger write failed", {{"path", path}});
            break;
        }
        off += static_cast<std::size_t>(w);
    }
    ::close(fd);
}

/** `"text"`, JSON-escaped. */
std::string
quoted(const std::string &text)
{
    std::string out = "\"";
    out += json::escape(text);
    out += '"';
    return out;
}

/** perf_check's and perf_trend's one regression test: @p current is
 *  more than @p max_regression slower than a @p reference at or above
 *  the @p min_seconds noise floor. */
bool
slowerThanBudget(double reference, double current, double max_regression,
                 double min_seconds)
{
    return reference >= min_seconds &&
           current / reference > 1.0 + max_regression;
}

} // namespace

std::string
fnv1aHex(std::string_view bytes)
{
    std::uint64_t hash = 14695981039346656037ull; // FNV offset basis
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ull; // FNV prime
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

bool
ledgerConfigured()
{
    return ledgerPath() != nullptr;
}

Recorder::Recorder(std::string benchmark, int argc,
                   const char *const *argv)
    : benchmark_(std::move(benchmark)),
      start_(std::chrono::steady_clock::now()),
      startUnixMs_(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::system_clock::now().time_since_epoch())
              .count()))
{
    for (int i = 1; i < argc; ++i)
        argv_.emplace_back(argv[i]);
}

Recorder::~Recorder()
{
    finish();
}

void
Recorder::setHash(const std::string &key, std::string value)
{
    hashes_[key] = std::move(value);
}

void
Recorder::hashBytes(const std::string &key, std::string_view bytes)
{
    setHash(key, fnv1aHex(bytes));
}

void
Recorder::addNote(std::string note)
{
    notes_.push_back(std::move(note));
}

void
Recorder::setExitStatus(int status)
{
    exitStatus_ = status;
}

std::string
Recorder::render() const
{
    const auto phases = metrics::Registry::global().phases();
    const auto counters = metrics::Registry::global().counters();
    const auto histograms = metrics::Registry::global().histograms();
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    const char *threads_env = std::getenv("YOUTIAO_THREADS");
    const std::optional<std::uint64_t> rss = peakRssBytes();
    // Entry separator: nothing before a block's first entry, a comma
    // before each later one.
    const auto sep = [](bool &first) {
        const char *s = first ? "" : ",";
        first = false;
        return s;
    };
    bool first = true;
    std::ostringstream out;
    out << "{\"schema\":\"youtiao-perf-5\"";
    out << ",\"benchmark\":" << quoted(benchmark_);
    out << ",\"start_unix_ms\":" << startUnixMs_;
    out << ",\"argv\":[";
    for (const std::string &arg : argv_)
        out << sep(first) << quoted(arg);
    out << "]";
    out << ",\"config\":{\"threads\":" << configuredThreadCount();
    out << ",\"youtiao_threads_env\":"
        << (threads_env != nullptr ? quoted(threads_env) : "null");
    out << ",\"build_type\":" << quoted(buildType());
    out << ",\"git_sha\":" << quoted(gitSha());
    out << ",\"peak_rss_bytes\":"
        << (rss.has_value() ? std::to_string(*rss) : "null") << "}";
    out << ",\"wall_seconds\":" << json::formatDouble(wall);
    out << ",\"cpu_seconds\":"
        << json::formatDouble(processCpuSeconds());
    out << ",\"exit_status\":" << exitStatus_;
    out << ",\"hashes\":{";
    first = true;
    for (const auto &[key, value] : hashes_)
        out << sep(first) << quoted(key) << ":" << quoted(value);
    out << "},\"notes\":[";
    first = true;
    for (const std::string &note : notes_)
        out << sep(first) << quoted(note);
    out << "],\"phases\":{";
    first = true;
    for (const auto &[name, stats] : phases)
        out << sep(first) << quoted(name)
            << ":{\"seconds\":" << json::formatDouble(stats.seconds)
            << ",\"calls\":" << stats.calls << "}";
    out << "},\"counters\":{";
    first = true;
    for (const auto &[name, value] : counters)
        out << sep(first) << quoted(name) << ":" << value;
    out << "},\"histograms\":{";
    first = true;
    for (const auto &[name, h] : histograms) {
        if (h.count == 0)
            continue;
        out << sep(first) << quoted(name) << ":{\"count\":" << h.count;
        const std::pair<const char *, double> doubles[] = {
            {"min", h.min},           {"max", h.max},
            {"p50", h.quantile(0.5)}, {"p90", h.quantile(0.9)},
            {"p99", h.quantile(0.99)},
        };
        for (const auto &[key, value] : doubles)
            out << ",\"" << key << "\":" << json::formatDouble(value);
        out << ",\"buckets\":{";
        bool first_bucket = true;
        for (std::size_t i = 0; i < metrics::kHistogramBuckets; ++i) {
            if (h.buckets[i] != 0)
                out << sep(first_bucket) << "\"" << i
                    << "\":" << h.buckets[i];
        }
        out << "}}";
    }
    out << "}}\n";
    return out.str();
}

const std::string &
Recorder::finish()
{
    if (!record_.empty())
        return record_; // already rendered, and appended once
    record_ = render();
    if (const char *path = ledgerPath())
        appendLedgerLine(path, record_);
    return record_;
}

// ---- parsing and comparison ---------------------------------------------

namespace {

HistogramRecord
parseHistogram(const std::string &name, const json::Value &entry)
{
    HistogramRecord h;
    const std::string what = "perf record: histogram '" + name + "'";
    h.count = entry.field("count").asInteger<std::uint64_t>(what +
                                                            " count");
    h.min = entry.field("min").asNumber(what + " min");
    h.max = entry.field("max").asNumber(what + " max");
    h.p50 = entry.field("p50").asNumber(what + " p50");
    h.p90 = entry.field("p90").asNumber(what + " p90");
    h.p99 = entry.field("p99").asNumber(what + " p99");
    for (const auto &[key, value] :
         entry.field("buckets").asObject(what + " buckets")) {
        char *end = nullptr;
        const long index = std::strtol(key.c_str(), &end, 10);
        requireConfig(end != nullptr && *end == '\0' && index >= 0 &&
                          index < static_cast<long>(
                                      metrics::kHistogramBuckets),
                      what + " has bad bucket key '" + key + "'");
        h.buckets[static_cast<int>(index)] =
            value.asInteger<std::uint64_t>(what + " bucket " + key);
    }
    return h;
}

std::vector<std::string>
parseStrings(const json::Value &array, const std::string &what)
{
    std::vector<std::string> out;
    for (const json::Value &entry : array.asArray(what))
        out.push_back(entry.asString(what + " entry"));
    return out;
}

} // namespace

PerfRecord
parsePerfRecord(const std::string &text)
{
    const json::Value root = json::parse(text, "perf record");
    PerfRecord record;
    record.schema = root.field("schema").asString("perf record: schema");
    requireConfig(record.schema == "youtiao-perf-5",
                  "perf record: unknown schema '" + record.schema + "'");
    record.benchmark =
        root.field("benchmark").asString("perf record: benchmark");
    if (const json::Value *argv = root.fieldIf("argv"))
        record.argv = parseStrings(*argv, "perf record: argv");
    if (const json::Value *start = root.fieldIf("start_unix_ms"))
        record.startUnixMs = start->asInteger<std::uint64_t>(
            "perf record: start_unix_ms");
    if (const json::Value *wall = root.fieldIf("wall_seconds"))
        record.wallSeconds = wall->asNumber("perf record: wall_seconds");
    if (const json::Value *cpu = root.fieldIf("cpu_seconds"))
        record.cpuSeconds = cpu->asNumber("perf record: cpu_seconds");
    if (const json::Value *status = root.fieldIf("exit_status"))
        record.exitStatus =
            status->asInteger<int>("perf record: exit_status");
    if (const json::Value *config = root.fieldIf("config")) {
        if (const json::Value *threads = config->fieldIf("threads"))
            record.threads = static_cast<std::size_t>(
                threads->asInteger<std::uint64_t>(
                    "perf record: config threads"));
        if (const json::Value *env =
                config->fieldIf("youtiao_threads_env")) {
            if (!env->isNull())
                record.threadsEnv = env->asString(
                    "perf record: config youtiao_threads_env");
        }
        if (const json::Value *build = config->fieldIf("build_type"))
            record.buildType =
                build->asString("perf record: config build_type");
        if (const json::Value *sha = config->fieldIf("git_sha"))
            record.gitSha = sha->asString("perf record: config git_sha");
        if (const json::Value *rss = config->fieldIf("peak_rss_bytes")) {
            if (!rss->isNull())
                record.peakRssBytes = rss->asInteger<std::uint64_t>(
                    "perf record: config peak_rss_bytes");
        }
    }
    if (const json::Value *hashes = root.fieldIf("hashes")) {
        for (const auto &[key, value] :
             hashes->asObject("perf record: hashes"))
            record.hashes[key] =
                value.asString("perf record: hash '" + key + "'");
    }
    if (const json::Value *notes = root.fieldIf("notes"))
        record.notes = parseStrings(*notes, "perf record: notes");
    for (const auto &[name, entry] :
         root.field("phases").asObject("perf record: phases")) {
        metrics::PhaseStats stats;
        stats.seconds = entry.field("seconds").asNumber(
            "perf record: phase '" + name + "' seconds");
        requireConfig(stats.seconds >= 0.0,
                      "perf record: phase '" + name +
                          "' has negative time");
        stats.calls = entry.field("calls").asInteger<std::uint64_t>(
            "perf record: phase '" + name + "' calls");
        record.phases[name] = stats;
    }
    for (const auto &[name, entry] :
         root.field("counters").asObject("perf record: counters"))
        record.counters[name] = entry.asInteger<std::uint64_t>(
            "perf record: counter '" + name + "'");
    if (const json::Value *histograms = root.fieldIf("histograms")) {
        for (const auto &[name, entry] :
             histograms->asObject("perf record: histograms"))
            record.histograms[name] = parseHistogram(name, entry);
    }
    return record;
}

PerfRecord
loadPerfRecord(const std::string &path)
{
    std::ifstream in(path);
    requireConfig(static_cast<bool>(in),
                  "cannot read perf record '" + path + "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    try {
        return parsePerfRecord(buffer.str());
    } catch (const ConfigError &e) {
        throw ConfigError(path + ": " + e.what());
    }
}

std::vector<PerfRecord>
parseLedger(const std::string &text)
{
    std::vector<PerfRecord> records;
    std::size_t line_number = 0;
    std::size_t begin = 0;
    while (begin <= text.size()) {
        std::size_t end = text.find('\n', begin);
        if (end == std::string::npos)
            end = text.size();
        const std::string line = text.substr(begin, end - begin);
        begin = end + 1;
        ++line_number;
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        try {
            records.push_back(parsePerfRecord(line));
        } catch (const ConfigError &e) {
            throw ConfigError("run ledger line " +
                              std::to_string(line_number) + ": " +
                              e.what());
        }
    }
    return records;
}

PerfComparison
comparePerfRecords(const PerfRecord &baseline, const PerfRecord &current,
                   double max_regression, double min_seconds)
{
    requireConfig(max_regression >= 0.0,
                  "max regression must be non-negative");
    requireConfig(min_seconds >= 0.0, "time floor must be non-negative");
    PerfComparison out;
    for (const auto &[name, base] : baseline.phases) {
        if (base.seconds < min_seconds)
            continue; // too fast to time reliably
        const auto it = current.phases.find(name);
        if (it == current.phases.end()) {
            out.missingPhases.push_back(name);
            continue;
        }
        ++out.comparedPhases;
        const PhaseDelta delta{name, base.seconds, it->second.seconds,
                               it->second.seconds / base.seconds};
        if (slowerThanBudget(base.seconds, it->second.seconds,
                             max_regression, min_seconds))
            out.regressions.push_back(delta);
        else if (delta.ratio < 1.0 - max_regression)
            out.improvements.push_back(delta);
    }
    std::sort(out.regressions.begin(), out.regressions.end(),
              [](const PhaseDelta &a, const PhaseDelta &b) {
                  return a.ratio > b.ratio;
              });
    std::sort(out.improvements.begin(), out.improvements.end(),
              [](const PhaseDelta &a, const PhaseDelta &b) {
                  return a.ratio < b.ratio;
              });
    return out;
}

// ---- trend analysis -----------------------------------------------------

namespace {

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank =
        std::max(1.0, std::ceil(q * static_cast<double>(values.size())));
    return values[static_cast<std::size_t>(rank) - 1];
}

} // namespace

std::vector<BenchmarkTrend>
ledgerTrends(const std::vector<PerfRecord> &records,
             const TrendOptions &options)
{
    // (benchmark, hashes) -> trend skeleton and phase -> seconds series
    // in ledger (chronological) order: runs on different inputs never
    // share a series. A run that did not exit 0 (cut short by
    // --deadline, failed) recorded truncated phase times: counted, but
    // never a prior and never the latest value.
    using SeriesKey =
        std::pair<std::string, std::map<std::string, std::string>>;
    std::map<SeriesKey, BenchmarkTrend> by_series;
    std::map<SeriesKey, std::map<std::string, std::vector<double>>>
        series;
    for (const PerfRecord &record : records) {
        const SeriesKey key{record.benchmark, record.hashes};
        BenchmarkTrend &trend = by_series[key];
        if (record.exitStatus != 0) {
            ++trend.excludedRuns;
            continue;
        }
        ++trend.runs;
        for (const auto &[phase, stats] : record.phases)
            series[key][phase].push_back(stats.seconds);
    }
    std::vector<BenchmarkTrend> trends;
    for (auto &[key, trend] : by_series) {
        trend.benchmark = key.first;
        trend.hashes = key.second;
        for (const auto &[phase, values] : series[key]) {
            PhaseTrend p;
            p.phase = phase;
            p.observations = values.size();
            p.latestSeconds = values.back();
            p.p99Seconds = percentile(values, 0.99);
            if (values.size() >= 3) {
                p.medianPriorSeconds = median(
                    std::vector<double>(values.begin(), values.end() - 1));
                if (p.medianPriorSeconds > 0.0)
                    p.ratio = p.latestSeconds / p.medianPriorSeconds;
                p.regressed = slowerThanBudget(
                    p.medianPriorSeconds, p.latestSeconds,
                    options.maxRegression, options.minSeconds);
            }
            trend.phases.push_back(std::move(p));
        }
        trends.push_back(std::move(trend));
    }
    return trends;
}

std::string
trendReport(const std::vector<BenchmarkTrend> &trends,
            const TrendOptions &options)
{
    std::ostringstream out;
    char line[200];
    if (trends.empty()) {
        out << "run ledger: no records\n";
        return out.str();
    }
    for (const BenchmarkTrend &trend : trends) {
        out << "-- " << trend.benchmark;
        if (!trend.hashes.empty()) {
            std::string lines;
            for (const auto &[key, value] : trend.hashes)
                lines += key + "=" + value + "\n";
            out << " inputs " << fnv1aHex(lines).substr(0, 8);
        }
        out << " (" << trend.runs << " runs";
        if (trend.excludedRuns > 0)
            out << ", " << trend.excludedRuns
                << " with non-zero exit excluded";
        out << ", regression threshold "
            << static_cast<int>(options.maxRegression * 100.0 + 0.5)
            << "%) --\n";
        std::snprintf(line, sizeof line,
                      "%-40s %5s %14s %12s %12s %7s\n", "phase", "runs",
                      "median(prior)", "p99", "latest", "ratio");
        out << line;
        for (const PhaseTrend &p : trend.phases) {
            std::snprintf(line, sizeof line,
                          "%-40s %5zu %14.6f %12.6f %12.6f %7.2f%s\n",
                          p.phase.c_str(), p.observations,
                          p.medianPriorSeconds, p.p99Seconds,
                          p.latestSeconds, p.ratio,
                          p.regressed ? "  REGRESSED" : "");
            out << line;
        }
        out << "\n";
    }
    return out.str();
}

} // namespace youtiao::runledger
