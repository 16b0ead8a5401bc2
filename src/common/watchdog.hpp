/**
 * @file
 * Live resource watchdog: an optional sampler thread that records RSS,
 * CPU time, A* arena bytes, and thread-pool queue depth as a time
 * series, plus a stall detector that flags phases exceeding their
 * wall-clock budget.
 *
 * The metrics registry (common/metrics.hpp) aggregates after the fact;
 * the watchdog watches a run while it is still going. When armed
 * (watchdog::start or the YOUTIAO_WATCHDOG environment variable) a
 * single background thread wakes every interval, snapshots the process
 * (current RSS from /proc/self/statm where available, cumulative CPU
 * from getrusage, the peak gauges instrumented sites publish), and
 * appends one Sample to an in-memory series that the run record
 * (common/runledger.hpp) emits as its "resource_samples" block (schema
 * youtiao-perf-5, see docs/FILE_FORMATS.md).
 *
 * Stall detection: phases named in the budget list are tracked by the
 * metrics::ScopedTimer begin/end hooks; when a running phase exceeds
 * its budget the watchdog logs a warning and snapshots the flight
 * recorder (reason "stall:<phase>"), once per phase entry, so a hung
 * 10k-qubit route leaves evidence while the process is still alive.
 *
 * Observation-only contract: sampling reads process state and gauges;
 * it never feeds back into the computation, so designer output is
 * byte-identical with the watchdog on or off, at any YOUTIAO_THREADS.
 * Disabled (the default), every gauge site costs one relaxed atomic
 * load and branch.
 *
 * Environment:
 *   YOUTIAO_WATCHDOG          "1"/"on" = default 50 ms interval, or a
 *                             number = sampling interval in ms
 *   YOUTIAO_WATCHDOG_BUDGET   "phase:seconds,phase:seconds,..." stall
 *                             budgets (e.g. "design.route:5,sim.run:30")
 *   YOUTIAO_WATCHDOG_CANCEL   "1" = a blown budget also requests
 *                             cooperative cancellation (common/cancel.hpp)
 */

#ifndef YOUTIAO_COMMON_WATCHDOG_HPP
#define YOUTIAO_COMMON_WATCHDOG_HPP

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace youtiao::watchdog {

namespace detail {
extern std::atomic<bool> g_enabled;
extern std::atomic<std::uint64_t> g_gauges[2];
} // namespace detail

/** True while the sampler thread runs; the single relaxed load every
 *  gauge site and ScopedTimer pays when the watchdog is off. */
inline bool
enabled()
{
    return detail::g_enabled.load(std::memory_order_relaxed);
}

/** Gauges instrumented sites publish for the sampler to read. */
enum class Gauge : std::size_t
{
    AstarArenaBytes = 0, ///< peak A* SearchArena footprint (bytes)
    PoolQueueDepth = 1,  ///< peak pending tasks on the global pool
};

/** Raise gauge @p g to at least @p value (running peak since start()).
 *  Wait-free; a no-op costing one relaxed load when disabled. */
inline void
gaugeMax(Gauge g, std::uint64_t value)
{
    if (!enabled())
        return;
    auto &slot = detail::g_gauges[static_cast<std::size_t>(g)];
    std::uint64_t cur = slot.load(std::memory_order_relaxed);
    while (cur < value &&
           !slot.compare_exchange_weak(cur, value,
                                       std::memory_order_relaxed)) {
    }
}

/** Current value of gauge @p g (0 when never published). */
std::uint64_t gaugeValue(Gauge g);

/** Cumulative user+system CPU seconds of the process (0 where the
 *  platform cannot report it). */
double processCpuSeconds();

/** Peak resident set size of the process in bytes, or nullopt where the
 *  platform cannot measure it (records write null, never a zero).
 *  ru_maxrss is kilobytes on Linux, bytes on macOS. */
std::optional<std::uint64_t> peakRssBytes();

/** One watchdog snapshot. */
struct Sample
{
    double tsSeconds = 0.0;       ///< seconds since start()
    std::uint64_t rssBytes = 0;   ///< current resident set (0 = unknown)
    double cpuSeconds = 0.0;      ///< cumulative user+system CPU
    std::uint64_t astarArenaBytes = 0; ///< Gauge::AstarArenaBytes peak
    std::uint64_t poolQueueDepth = 0;  ///< Gauge::PoolQueueDepth peak
};

struct Config
{
    double intervalSeconds = 0.05;
    /** Phases whose wall time is budgeted: exceeding the budget logs a
     *  warning and dumps the flight recorder, once per phase entry. */
    std::vector<std::pair<std::string, double>> phaseBudgets;
    /** Series cap; samples beyond it are dropped (counted). */
    std::size_t maxSamples = 100000;
    /**
     * A blown phase budget also trips cancel::requestCancel, so the run
     * aborts cooperatively (structured error, flight dump) instead of
     * hanging until an external kill. Opt-in via
     * YOUTIAO_WATCHDOG_CANCEL=1; observation-only otherwise.
     */
    bool cancelOnStall = false;
};

/** Start the sampler thread. Returns false when already running. Clears
 *  the previous series, gauges, and stall counter. */
bool start(const Config &config = {});

/** start() configured from YOUTIAO_WATCHDOG / YOUTIAO_WATCHDOG_BUDGET.
 *  Returns false when the variable is unset/"0" or already running. */
bool startFromEnv();

/** Stop and join the sampler. The recorded series stays readable via
 *  samples() until the next start(). Safe to call when not running. */
void stop();

bool running();

/** Copy of the recorded series (stable only after stop(), but safe to
 *  call any time). */
std::vector<Sample> samples();

/** Samples dropped because the series hit Config::maxSamples. */
std::uint64_t droppedSamples();

/** Phase-budget violations observed since start(). */
std::uint64_t stallCount();

// Internal: phase tracking hooks called by metrics::ScopedTimer. Only
// budgeted phases are tracked; everything else returns immediately.
void phaseBegin(std::string_view name);
void phaseEnd(std::string_view name);

} // namespace youtiao::watchdog

#endif // YOUTIAO_COMMON_WATCHDOG_HPP
