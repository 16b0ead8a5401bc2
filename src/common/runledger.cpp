#include "common/runledger.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
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

/** Build flavour baked in by CMake (same source as the perf record). */
const char *
buildType()
{
#if defined(YOUTIAO_BUILD_TYPE)
    if (YOUTIAO_BUILD_TYPE[0] != '\0')
        return YOUTIAO_BUILD_TYPE;
#endif
#if defined(NDEBUG)
    return "NDEBUG";
#else
    return "unspecified";
#endif
}

const char *
ledgerPath()
{
    const char *path = std::getenv("YOUTIAO_RUN_LEDGER");
    return path != nullptr && *path != '\0' ? path : nullptr;
}

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

std::uint64_t
peakRssBytes()
{
#if defined(__unix__) || defined(__APPLE__)
    struct rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) == 0) {
#if defined(__APPLE__)
        return static_cast<std::uint64_t>(usage.ru_maxrss);
#else
        return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
#endif
    }
#endif
    return 0;
}

/**
 * Append @p line (newline appended here) with a single write to an
 * O_APPEND descriptor, so concurrent processes sharing the ledger never
 * interleave records. Best effort: a ledger failure must never fail the
 * run it describes, so errors are logged and swallowed.
 */
void
appendLedgerLine(const char *path, std::string line)
{
    line += '\n';
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

Recorder::Recorder(std::string tool, int argc, const char *const *argv)
    : tool_(std::move(tool)),
      start_(std::chrono::steady_clock::now()),
      startUnixMs_(std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::system_clock::now()
                           .time_since_epoch())
                       .count())
{
    // argv[0] is the binary path (volatile across checkouts); the
    // manifest records the arguments proper.
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
Recorder::manifestJson() const
{
    const auto phases = metrics::Registry::global().phases();
    const auto counters = metrics::Registry::global().counters();
    const auto histograms = metrics::Registry::global().histograms();
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    const char *threads_env = std::getenv("YOUTIAO_THREADS");
    std::ostringstream out;
    out << "{\"schema\":\"youtiao-run-1\"";
    out << ",\"tool\":\"" << json::escape(tool_) << "\"";
    out << ",\"start_unix_ms\":" << startUnixMs_;
    out << ",\"argv\":[";
    for (std::size_t i = 0; i < argv_.size(); ++i)
        out << (i == 0 ? "" : ",") << "\"" << json::escape(argv_[i])
            << "\"";
    out << "]";
    out << ",\"git_sha\":\"" << json::escape(gitSha()) << "\"";
    out << ",\"build_type\":\"" << json::escape(buildType()) << "\"";
    out << ",\"threads\":" << configuredThreadCount();
    if (threads_env != nullptr)
        out << ",\"youtiao_threads_env\":\"" << json::escape(threads_env)
            << "\"";
    else
        out << ",\"youtiao_threads_env\":null";
    out << ",\"wall_seconds\":" << json::formatDouble(wall);
    out << ",\"cpu_seconds\":" << json::formatDouble(processCpuSeconds());
    out << ",\"peak_rss_bytes\":" << peakRssBytes();
    out << ",\"exit_status\":" << exitStatus_;
    out << ",\"hashes\":{";
    bool first = true;
    for (const auto &[key, value] : hashes_) {
        out << (first ? "" : ",") << "\"" << json::escape(key)
            << "\":\"" << json::escape(value) << "\"";
        first = false;
    }
    out << "}";
    out << ",\"notes\":[";
    for (std::size_t i = 0; i < notes_.size(); ++i)
        out << (i == 0 ? "" : ",") << "\"" << json::escape(notes_[i])
            << "\"";
    out << "]";
    out << ",\"phases\":{";
    first = true;
    for (const auto &[name, stats] : phases) {
        out << (first ? "" : ",") << "\"" << json::escape(name)
            << "\":{\"seconds\":" << json::formatDouble(stats.seconds)
            << ",\"calls\":" << stats.calls << "}";
        first = false;
    }
    out << "}";
    out << ",\"counters\":{";
    first = true;
    for (const auto &[name, value] : counters) {
        out << (first ? "" : ",") << "\"" << json::escape(name)
            << "\":" << value;
        first = false;
    }
    out << "}";
    out << ",\"histograms\":{";
    first = true;
    for (const auto &[name, h] : histograms) {
        if (h.count == 0)
            continue;
        out << (first ? "" : ",") << "\"" << json::escape(name)
            << "\":{\"count\":" << h.count
            << ",\"p50\":" << json::formatDouble(h.quantile(0.5))
            << ",\"p90\":" << json::formatDouble(h.quantile(0.9))
            << ",\"p99\":" << json::formatDouble(h.quantile(0.99))
            << "}";
        first = false;
    }
    out << "}}";
    return out.str();
}

void
Recorder::finish()
{
    if (finished_)
        return;
    finished_ = true;
    const char *path = ledgerPath();
    if (path == nullptr)
        return;
    appendLedgerLine(path, manifestJson());
}

// ---- parsing ------------------------------------------------------------

LedgerEntry
parseLedgerLine(const std::string &line)
{
    const json::Value root = json::parse(line, "run ledger");
    const std::string schema =
        root.field("schema").asString("run ledger: schema");
    requireConfig(schema == "youtiao-run-1",
                  "run ledger: unknown schema '" + schema + "'");
    LedgerEntry entry;
    entry.tool = root.field("tool").asString("run ledger: tool");
    if (const json::Value *argv = root.fieldIf("argv")) {
        for (const json::Value &arg :
             argv->asArray("run ledger: argv"))
            entry.argv.push_back(arg.asString("run ledger: argv entry"));
    }
    if (const json::Value *sha = root.fieldIf("git_sha"))
        entry.gitSha = sha->asString("run ledger: git_sha");
    if (const json::Value *build = root.fieldIf("build_type"))
        entry.buildType = build->asString("run ledger: build_type");
    if (const json::Value *threads = root.fieldIf("threads"))
        entry.threads = static_cast<std::size_t>(
            threads->asInteger<std::uint64_t>("run ledger: threads"));
    if (const json::Value *status = root.fieldIf("exit_status"))
        entry.exitStatus =
            status->asInteger<int>("run ledger: exit_status");
    if (const json::Value *wall = root.fieldIf("wall_seconds"))
        entry.wallSeconds = wall->asNumber("run ledger: wall_seconds");
    if (const json::Value *cpu = root.fieldIf("cpu_seconds"))
        entry.cpuSeconds = cpu->asNumber("run ledger: cpu_seconds");
    if (const json::Value *rss = root.fieldIf("peak_rss_bytes")) {
        if (!rss->isNull())
            entry.peakRssBytes = rss->asInteger<std::uint64_t>(
                "run ledger: peak_rss_bytes");
    }
    if (const json::Value *hashes = root.fieldIf("hashes")) {
        for (const auto &[key, value] :
             hashes->asObject("run ledger: hashes"))
            entry.hashes[key] =
                value.asString("run ledger: hash '" + key + "'");
    }
    if (const json::Value *notes = root.fieldIf("notes")) {
        for (const json::Value &note :
             notes->asArray("run ledger: notes"))
            entry.notes.push_back(
                note.asString("run ledger: note entry"));
    }
    if (const json::Value *phases = root.fieldIf("phases")) {
        for (const auto &[name, value] :
             phases->asObject("run ledger: phases")) {
            metrics::PhaseStats stats;
            stats.seconds = value.field("seconds").asNumber(
                "run ledger: phase '" + name + "' seconds");
            stats.calls = value.field("calls").asInteger<std::uint64_t>(
                "run ledger: phase '" + name + "' calls");
            entry.phases[name] = stats;
        }
    }
    if (const json::Value *counters = root.fieldIf("counters")) {
        for (const auto &[name, value] :
             counters->asObject("run ledger: counters"))
            entry.counters[name] = value.asInteger<std::uint64_t>(
                "run ledger: counter '" + name + "'");
    }
    return entry;
}

std::vector<LedgerEntry>
parseLedger(const std::string &text)
{
    std::vector<LedgerEntry> entries;
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
            entries.push_back(parseLedgerLine(line));
        } catch (const ConfigError &e) {
            throw ConfigError("run ledger line " +
                              std::to_string(line_number) + ": " +
                              e.what());
        }
    }
    return entries;
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

std::vector<ToolTrend>
ledgerTrends(const std::vector<LedgerEntry> &entries,
             const TrendOptions &options)
{
    // tool -> phase -> seconds series in ledger (chronological) order.
    std::map<std::string, std::map<std::string, std::vector<double>>>
        series;
    std::map<std::string, std::size_t> runs;
    for (const LedgerEntry &entry : entries) {
        ++runs[entry.tool];
        for (const auto &[phase, stats] : entry.phases)
            series[entry.tool][phase].push_back(stats.seconds);
    }
    std::vector<ToolTrend> trends;
    for (const auto &[tool, phases] : series) {
        ToolTrend trend;
        trend.tool = tool;
        trend.runs = runs[tool];
        for (const auto &[phase, values] : phases) {
            PhaseTrend p;
            p.phase = phase;
            p.observations = values.size();
            p.latestSeconds = values.back();
            p.p99Seconds = percentile(values, 0.99);
            if (values.size() >= 3) {
                std::vector<double> priors(values.begin(),
                                           values.end() - 1);
                p.medianPriorSeconds = median(std::move(priors));
                if (p.medianPriorSeconds > 0.0)
                    p.ratio = p.latestSeconds / p.medianPriorSeconds;
                p.regressed =
                    p.medianPriorSeconds >= options.minSeconds &&
                    p.latestSeconds >
                        p.medianPriorSeconds *
                            (1.0 + options.maxRegression);
            }
            trend.phases.push_back(std::move(p));
        }
        trends.push_back(std::move(trend));
    }
    return trends;
}

std::string
trendReport(const std::vector<ToolTrend> &trends,
            const TrendOptions &options)
{
    std::ostringstream out;
    char line[200];
    if (trends.empty()) {
        out << "run ledger: no entries with phase timings\n";
        return out.str();
    }
    for (const ToolTrend &trend : trends) {
        out << "-- " << trend.tool << " (" << trend.runs << " runs, "
            << "regression threshold "
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
