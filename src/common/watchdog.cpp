#include "common/watchdog.hpp"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#endif

#include "common/cancel.hpp"
#include "common/flight.hpp"
#include "common/log.hpp"
#include "common/parallel.hpp"

namespace youtiao::watchdog {

namespace detail {
std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_gauges[2]{};
} // namespace detail

namespace {

/** Wall-clock state of one budgeted phase currently on some thread's
 *  stack. Nested/concurrent entries of the same phase share one record
 *  (depth-counted); the budget clock starts at the outermost begin. */
struct ActivePhase
{
    std::size_t depth = 0;
    std::chrono::steady_clock::time_point start;
    double budgetSeconds = 0.0;
    bool flagged = false;
};

struct State
{
    std::mutex mutex;
    std::thread sampler;
    std::condition_variable cv;
    bool stopRequested = false;
    bool running = false;
    Config config;
    std::chrono::steady_clock::time_point t0;
    std::vector<Sample> series;
    std::uint64_t dropped = 0;
    std::atomic<std::uint64_t> stalls{0};

    std::mutex phaseMutex;
    std::map<std::string, double, std::less<>> budgets;
    std::map<std::string, ActivePhase, std::less<>> active;
};

State &
state()
{
    // Leaked: gauge sites and phase hooks may fire during static
    // teardown, after local statics would already be destroyed.
    static State *instance = new State;
    return *instance;
}

/** Current resident set in bytes: /proc/self/statm on Linux (live
 *  value), peak RSS from getrusage elsewhere, 0 when unmeasurable. */
std::uint64_t
currentRssBytes()
{
#if defined(__linux__)
    if (std::FILE *f = std::fopen("/proc/self/statm", "r")) {
        unsigned long long size = 0, resident = 0;
        const int got = std::fscanf(f, "%llu %llu", &size, &resident);
        std::fclose(f);
        if (got == 2)
            return static_cast<std::uint64_t>(resident) *
                   static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
    }
#endif
    return peakRssBytes().value_or(0);
}

void
takeSample(State &s)
{
    Sample sample;
    sample.tsSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      s.t0)
            .count();
    sample.rssBytes = currentRssBytes();
    sample.cpuSeconds = processCpuSeconds();
    sample.astarArenaBytes = gaugeValue(Gauge::AstarArenaBytes);
    std::uint64_t queue = gaugeValue(Gauge::PoolQueueDepth);
    if (const ThreadPool *pool = ThreadPool::globalIfStarted()) {
        const std::uint64_t pending = pool->pendingTaskCount();
        if (pending > queue)
            queue = pending;
    }
    sample.poolQueueDepth = queue;
    const std::lock_guard<std::mutex> lock(s.mutex);
    if (s.series.size() < s.config.maxSamples)
        s.series.push_back(sample);
    else
        ++s.dropped;
}

void
checkStalls(State &s)
{
    // Collect violations under the lock, report after releasing it:
    // log::write and flight::dump must never run with phaseMutex held
    // (an instrumented site inside them would self-deadlock).
    std::vector<std::pair<std::string, double>> hits;
    {
        const std::lock_guard<std::mutex> lock(s.phaseMutex);
        const auto now = std::chrono::steady_clock::now();
        for (auto &[name, phase] : s.active) {
            if (phase.flagged)
                continue;
            const double elapsed =
                std::chrono::duration<double>(now - phase.start)
                    .count();
            if (elapsed > phase.budgetSeconds) {
                phase.flagged = true;
                hits.emplace_back(name, elapsed);
            }
        }
    }
    for (const auto &[name, elapsed] : hits) {
        s.stalls.fetch_add(1, std::memory_order_relaxed);
        double budget = 0.0;
        {
            const std::lock_guard<std::mutex> lock(s.phaseMutex);
            const auto it = s.budgets.find(name);
            if (it != s.budgets.end())
                budget = it->second;
        }
        log::warn("watchdog stall", {{"phase", name},
                                     {"elapsed_s", elapsed},
                                     {"budget_s", budget}});
        const std::string reason = "stall:" + name;
        flight::dump(reason.c_str());
        if (s.config.cancelOnStall)
            cancel::requestCancel(reason.c_str());
    }
}

void
samplerLoop(State &s)
{
    const auto interval = std::chrono::duration<double>(
        s.config.intervalSeconds > 0.0 ? s.config.intervalSeconds
                                       : 0.05);
    std::unique_lock<std::mutex> lock(s.mutex);
    while (!s.stopRequested) {
        lock.unlock();
        takeSample(s);
        checkStalls(s);
        lock.lock();
        s.cv.wait_for(
            lock,
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                interval),
            [&s] { return s.stopRequested; });
    }
}

} // namespace

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

std::uint64_t
gaugeValue(Gauge g)
{
    return detail::g_gauges[static_cast<std::size_t>(g)].load(
        std::memory_order_relaxed);
}

bool
start(const Config &config)
{
    State &s = state();
    {
        const std::lock_guard<std::mutex> lock(s.mutex);
        if (s.running)
            return false;
        s.running = true;
        s.stopRequested = false;
        s.config = config;
        s.series.clear();
        s.dropped = 0;
        s.t0 = std::chrono::steady_clock::now();
    }
    s.stalls.store(0, std::memory_order_relaxed);
    for (auto &gauge : detail::g_gauges)
        gauge.store(0, std::memory_order_relaxed);
    {
        const std::lock_guard<std::mutex> lock(s.phaseMutex);
        s.budgets.clear();
        s.active.clear();
        for (const auto &[name, seconds] : config.phaseBudgets)
            s.budgets[name] = seconds;
    }
    detail::g_enabled.store(true, std::memory_order_relaxed);
    s.sampler = std::thread([&s] { samplerLoop(s); });
    return true;
}

bool
startFromEnv()
{
    const char *env = std::getenv("YOUTIAO_WATCHDOG");
    if (env == nullptr || *env == '\0' || std::strcmp(env, "0") == 0)
        return false;
    Config config;
    if (std::strcmp(env, "1") != 0 && std::strcmp(env, "on") != 0) {
        char *end = nullptr;
        const double ms = std::strtod(env, &end);
        if (end != env && *end == '\0' && ms > 0.0) {
            config.intervalSeconds = ms / 1000.0;
        } else {
            log::warn("YOUTIAO_WATCHDOG is not 1|on|<interval ms>; "
                      "using default interval",
                      {{"value", env}});
        }
    }
    if (const char *cancel_env = std::getenv("YOUTIAO_WATCHDOG_CANCEL"))
        config.cancelOnStall = std::strcmp(cancel_env, "1") == 0;
    if (const char *spec = std::getenv("YOUTIAO_WATCHDOG_BUDGET")) {
        std::string_view rest(spec);
        while (!rest.empty()) {
            const std::size_t comma = rest.find(',');
            std::string_view item = rest.substr(0, comma);
            rest = comma == std::string_view::npos
                       ? std::string_view()
                       : rest.substr(comma + 1);
            const std::size_t colon = item.rfind(':');
            bool ok = false;
            if (colon != std::string_view::npos && colon > 0) {
                const std::string seconds_text(item.substr(colon + 1));
                char *end = nullptr;
                const double seconds =
                    std::strtod(seconds_text.c_str(), &end);
                if (end != seconds_text.c_str() && *end == '\0' &&
                    seconds > 0.0) {
                    config.phaseBudgets.emplace_back(
                        std::string(item.substr(0, colon)), seconds);
                    ok = true;
                }
            }
            if (!ok && !item.empty())
                log::warn("ignoring malformed YOUTIAO_WATCHDOG_BUDGET "
                          "entry (want phase:seconds)",
                          {{"entry", std::string(item)}});
        }
    }
    return start(config);
}

void
stop()
{
    State &s = state();
    {
        const std::lock_guard<std::mutex> lock(s.mutex);
        if (!s.running)
            return;
        s.stopRequested = true;
    }
    s.cv.notify_all();
    s.sampler.join();
    detail::g_enabled.store(false, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(s.mutex);
    s.running = false;
}

bool
running()
{
    State &s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    return s.running;
}

std::vector<Sample>
samples()
{
    State &s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    return s.series;
}

std::uint64_t
droppedSamples()
{
    State &s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    return s.dropped;
}

std::uint64_t
stallCount()
{
    return state().stalls.load(std::memory_order_relaxed);
}

void
phaseBegin(std::string_view name)
{
    State &s = state();
    const std::lock_guard<std::mutex> lock(s.phaseMutex);
    const auto budget = s.budgets.find(name);
    if (budget == s.budgets.end())
        return;
    auto [it, inserted] =
        s.active.try_emplace(std::string(name));
    ActivePhase &phase = it->second;
    if (phase.depth == 0) {
        phase.start = std::chrono::steady_clock::now();
        phase.budgetSeconds = budget->second;
        phase.flagged = false;
    }
    ++phase.depth;
}

void
phaseEnd(std::string_view name)
{
    State &s = state();
    const std::lock_guard<std::mutex> lock(s.phaseMutex);
    const auto it = s.active.find(name);
    if (it == s.active.end())
        return;
    if (--it->second.depth == 0)
        s.active.erase(it);
}

} // namespace youtiao::watchdog
