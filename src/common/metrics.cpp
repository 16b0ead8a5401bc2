#include "common/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "common/flight.hpp"
#include "common/json.hpp"
#include "common/parallel.hpp"
#include "common/trace.hpp"
#include "common/watchdog.hpp"

namespace youtiao::metrics {

/** One thread's private accumulation slot. The shard mutex is only ever
 *  contended by snapshot/reset; the owning thread takes it uncontended. */
struct Registry::Shard
{
    std::mutex mutex;
    std::unordered_map<std::string, PhaseStats> phases;
    std::unordered_map<std::string, std::uint64_t> counters;
    std::unordered_map<std::string, HistogramStats> histograms;
};

std::size_t
HistogramStats::bucketIndex(double value)
{
    if (!(value > 0.0))
        return 0; // negatives, zero and NaN land in the catch-all
    const int exp = std::ilogb(value); // floor(log2(value))
    const long idx = static_cast<long>(exp) + 31;
    if (idx < 0)
        return 0;
    if (idx >= static_cast<long>(kHistogramBuckets))
        return kHistogramBuckets - 1;
    return static_cast<std::size_t>(idx);
}

double
HistogramStats::bucketLowerBound(std::size_t index)
{
    if (index == 0)
        return 0.0;
    return std::ldexp(1.0, static_cast<int>(index) - 31);
}

double
HistogramStats::bucketUpperBound(std::size_t index)
{
    return std::ldexp(1.0, static_cast<int>(index) - 30);
}

void
HistogramStats::observe(double value)
{
    if (count == 0) {
        min = value;
        max = value;
    } else {
        min = std::min(min, value);
        max = std::max(max, value);
    }
    ++count;
    ++buckets[bucketIndex(value)];
}

void
HistogramStats::merge(const HistogramStats &other)
{
    if (other.count == 0)
        return;
    if (count == 0) {
        min = other.min;
        max = other.max;
    } else {
        min = std::min(min, other.min);
        max = std::max(max, other.max);
    }
    count += other.count;
    for (std::size_t i = 0; i < kHistogramBuckets; ++i)
        buckets[i] += other.buckets[i];
}

double
HistogramStats::quantile(double q) const
{
    // Degenerate histograms have exact answers: an empty one reports 0
    // and a single observation is every percentile of itself. Neither
    // may fall through to the bucket scan, whose interpolation assumes
    // at least one populated bucket between min and max.
    if (count == 0)
        return 0.0;
    if (count == 1)
        return min;
    q = std::clamp(q, 0.0, 1.0);
    // Rank of the requested quantile (1-based); linear interpolation
    // between a bucket's edges, then clamped to the exact [min, max].
    const double target = std::max(1.0, q * static_cast<double>(count));
    double before = 0.0;
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
        if (buckets[i] == 0)
            continue;
        const auto in_bucket = static_cast<double>(buckets[i]);
        if (before + in_bucket >= target) {
            const double lo = bucketLowerBound(i);
            const double hi = bucketUpperBound(i);
            const double frac = (target - before) / in_bucket;
            return std::clamp(lo + (hi - lo) * frac, min, max);
        }
        before += in_bucket;
    }
    return max;
}

namespace {

std::uint64_t
nextRegistryId()
{
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

Registry::Registry()
    : id_(nextRegistryId())
{}

Registry::~Registry() = default;

Registry &
Registry::global()
{
    // Leaked on purpose: worker threads may flush metrics during static
    // destruction, after local statics would already be gone.
    static Registry *instance = new Registry;
    return *instance;
}

Registry::Shard &
Registry::localShard()
{
    // Cache keyed by registry id (not address) so a registry destroyed
    // and reallocated at the same address cannot resurrect stale shards.
    thread_local std::vector<std::pair<std::uint64_t, Shard *>> cache;
    for (const auto &[id, shard] : cache) {
        if (id == id_)
            return *shard;
    }
    auto owned = std::make_unique<Shard>();
    Shard *shard = owned.get();
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        shards_.push_back(std::move(owned));
    }
    cache.emplace_back(id_, shard);
    return *shard;
}

void
Registry::addPhase(std::string_view name, double seconds)
{
    Shard &shard = localShard();
    const std::lock_guard<std::mutex> lock(shard.mutex);
    PhaseStats &stats = shard.phases[std::string(name)];
    stats.seconds += seconds;
    stats.calls += 1;
}

void
Registry::addCounter(std::string_view name, std::uint64_t delta)
{
    Shard &shard = localShard();
    const std::lock_guard<std::mutex> lock(shard.mutex);
    shard.counters[std::string(name)] += delta;
}

void
Registry::addHistogram(std::string_view name, double value)
{
    Shard &shard = localShard();
    const std::lock_guard<std::mutex> lock(shard.mutex);
    shard.histograms[std::string(name)].observe(value);
}

std::map<std::string, PhaseStats>
Registry::phases() const
{
    std::map<std::string, PhaseStats> merged;
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &shard : shards_) {
        const std::lock_guard<std::mutex> shard_lock(shard->mutex);
        for (const auto &[name, stats] : shard->phases) {
            PhaseStats &into = merged[name];
            into.seconds += stats.seconds;
            into.calls += stats.calls;
        }
    }
    return merged;
}

std::map<std::string, std::uint64_t>
Registry::counters() const
{
    std::map<std::string, std::uint64_t> merged;
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &shard : shards_) {
        const std::lock_guard<std::mutex> shard_lock(shard->mutex);
        for (const auto &[name, value] : shard->counters)
            merged[name] += value;
    }
    return merged;
}

std::map<std::string, HistogramStats>
Registry::histograms() const
{
    std::map<std::string, HistogramStats> merged;
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &shard : shards_) {
        const std::lock_guard<std::mutex> shard_lock(shard->mutex);
        for (const auto &[name, stats] : shard->histograms)
            merged[name].merge(stats);
    }
    return merged;
}

void
Registry::reset()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &shard : shards_) {
        const std::lock_guard<std::mutex> shard_lock(shard->mutex);
        shard->phases.clear();
        shard->counters.clear();
        shard->histograms.clear();
    }
}

ScopedTimer::ScopedTimer(const char *name, Registry *registry)
    : name_(name),
      registry_(registry != nullptr ? registry : &Registry::global()),
      start_(std::chrono::steady_clock::now()),
      watchdogTracked_(watchdog::enabled()),
      traced_(trace::enabled()),
      flightTracked_(flight::enabled())
{
    // Stall detection rides on the phase scope: when the watchdog runs,
    // budgeted phases are tracked from begin to end.
    if (watchdogTracked_)
        watchdog::phaseBegin(name_);
}

ScopedTimer::~ScopedTimer()
{
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    if (watchdogTracked_)
        watchdog::phaseEnd(name_);
    registry_->addPhase(
        name_, std::chrono::duration<double>(elapsed).count());
    const auto dur_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count());
    if (traced_ && trace::enabled()) {
        trace::Tracer &tracer = trace::Tracer::global();
        tracer.recordComplete(name_, nullptr, tracer.sinceEnableNs(start_),
                              dur_ns);
    }
    if (flightTracked_ && flight::enabled())
        flight::recordSpan(name_, dur_ns);
}

std::string
phaseTable()
{
    return phaseTable(Registry::global().phases(),
                      Registry::global().counters(),
                      Registry::global().histograms());
}

std::string
phaseTable(const std::map<std::string, PhaseStats> &phases,
           const std::map<std::string, std::uint64_t> &counters,
           const std::map<std::string, HistogramStats> &histograms)
{
    std::ostringstream out;
    char line[160];
    out << "\n-- phase profile --\n";
    std::snprintf(line, sizeof line, "%-40s %12s %10s\n", "phase",
                  "seconds", "calls");
    out << line;
    for (const auto &[name, stats] : phases) {
        std::snprintf(line, sizeof line, "%-40s %12.6f %10llu\n",
                      name.c_str(), stats.seconds,
                      static_cast<unsigned long long>(stats.calls));
        out << line;
    }
    if (phases.empty())
        out << "(no phases recorded)\n";
    if (!counters.empty()) {
        out << "\n-- counters --\n";
        for (const auto &[name, value] : counters) {
            std::snprintf(line, sizeof line, "%-40s %23llu\n",
                          name.c_str(),
                          static_cast<unsigned long long>(value));
            out << line;
        }
    }
    if (!histograms.empty()) {
        out << "\n-- histograms --\n";
        std::snprintf(line, sizeof line,
                      "%-32s %9s %10s %10s %10s %10s\n", "histogram",
                      "count", "p50", "p90", "p99", "max");
        out << line;
        for (const auto &[name, h] : histograms) {
            std::snprintf(line, sizeof line,
                          "%-32s %9llu %10.4g %10.4g %10.4g %10.4g\n",
                          name.c_str(),
                          static_cast<unsigned long long>(h.count),
                          h.quantile(0.5), h.quantile(0.9),
                          h.quantile(0.99), h.max);
            out << line;
        }
    }
    return out.str();
}

namespace {

/** Quoting mistakes must never corrupt the record; names here are
 *  plain identifiers, but escape anyway. */
std::string
jsonEscape(const std::string &text)
{
    return json::escape(text);
}

/**
 * Peak resident set size of the process (bytes), or nullopt where the
 * platform does not expose it / the call fails -- reported as JSON
 * null so consumers can tell "not measured" from a measured zero.
 * ru_maxrss is kilobytes on Linux, bytes on macOS.
 */
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

/** Build flavour baked in by CMake (see src/CMakeLists.txt). */
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

} // namespace

std::string
jsonReport(const std::string &benchmark)
{
    const auto phases = Registry::global().phases();
    const auto counters = Registry::global().counters();
    const auto histograms = Registry::global().histograms();
    std::ostringstream out;
    const char *threads_env = std::getenv("YOUTIAO_THREADS");
    const std::optional<std::uint64_t> rss = peakRssBytes();
    out << "{\n";
    out << "  \"schema\": \"youtiao-perf-5\",\n";
    out << "  \"benchmark\": \"" << jsonEscape(benchmark) << "\",\n";
    out << "  \"config\": {\n";
    out << "    \"threads\": " << configuredThreadCount() << ",\n";
    if (threads_env != nullptr)
        out << "    \"youtiao_threads_env\": \""
            << jsonEscape(threads_env) << "\",\n";
    else
        out << "    \"youtiao_threads_env\": null,\n";
    out << "    \"build_type\": \"" << jsonEscape(buildType()) << "\",\n";
    out << "    \"peak_rss_bytes\": ";
    if (rss.has_value())
        out << *rss;
    else
        out << "null";
    out << "\n  },\n";
    out << "  \"phases\": {";
    bool first = true;
    for (const auto &[name, stats] : phases) {
        out << (first ? "\n" : ",\n");
        first = false;
        out << "    \"" << jsonEscape(name) << "\": {\"seconds\": "
            << json::formatDouble(stats.seconds)
            << ", \"calls\": " << stats.calls << "}";
    }
    out << (first ? "},\n" : "\n  },\n");
    out << "  \"counters\": {";
    first = true;
    for (const auto &[name, value] : counters) {
        out << (first ? "\n" : ",\n");
        first = false;
        out << "    \"" << jsonEscape(name) << "\": " << value;
    }
    out << (first ? "},\n" : "\n  },\n");
    out << "  \"histograms\": {";
    first = true;
    for (const auto &[name, h] : histograms) {
        if (h.count == 0)
            continue;
        out << (first ? "\n" : ",\n");
        first = false;
        out << "    \"" << jsonEscape(name) << "\": {";
        out << "\"count\": " << h.count;
        const std::pair<const char *, double> doubles[] = {
            {"min", h.min},           {"max", h.max},
            {"p50", h.quantile(0.5)}, {"p90", h.quantile(0.9)},
            {"p99", h.quantile(0.99)},
        };
        for (const auto &[key, value] : doubles)
            out << ", \"" << key << "\": " << json::formatDouble(value);
        out << ", \"buckets\": {";
        bool first_bucket = true;
        for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
            if (h.buckets[i] == 0)
                continue;
            out << (first_bucket ? "" : ", ");
            first_bucket = false;
            out << "\"" << i << "\": " << h.buckets[i];
        }
        out << "}}";
    }
    out << (first ? "},\n" : "\n  },\n");
    // Watchdog time series (empty when the watchdog never ran). The
    // sampler should be stopped before reporting so the series is final.
    out << "  \"resource_samples\": [";
    first = true;
    for (const watchdog::Sample &s : watchdog::samples()) {
        out << (first ? "\n" : ",\n");
        first = false;
        out << "    {\"ts_s\": " << json::formatDouble(s.tsSeconds)
            << ", \"rss_bytes\": " << s.rssBytes
            << ", \"cpu_seconds\": " << json::formatDouble(s.cpuSeconds)
            << ", \"astar_arena_bytes\": " << s.astarArenaBytes
            << ", \"pool_queue_depth\": " << s.poolQueueDepth << "}";
    }
    out << (first ? "],\n" : "\n  ],\n");
    out << "  \"watchdog_stalls\": " << watchdog::stallCount() << "\n";
    out << "}\n";
    return out.str();
}

} // namespace youtiao::metrics
