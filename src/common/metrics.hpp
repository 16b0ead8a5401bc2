/**
 * @file
 * Lightweight pipeline instrumentation: scoped wall-clock phase timers,
 * monotonic counters, and a process-wide registry.
 *
 * The registry keeps its sorted maps under one mutex, the same scheme
 * as the logger (common/log.hpp): a run makes some thousands of writes
 * from the few coarse tasks of the shared thread pool
 * (common/parallel.hpp), too few to contend. Metrics observe the
 * computation and never feed back into it, so instrumented runs stay
 * bit-identical to uninstrumented ones at any thread count.
 *
 * Conventions: phase and counter names are dot-separated, subsystem
 * first ("design.partition", "astar.cells_expanded"). Phases measure
 * wall-clock seconds and call counts; counters are monotonic event
 * tallies. Hot loops accumulate locally and flush one add per call, so
 * the per-event cost stays out of inner kernels.
 */

#ifndef YOUTIAO_COMMON_METRICS_HPP
#define YOUTIAO_COMMON_METRICS_HPP

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace youtiao::metrics {

/** Aggregated wall-clock statistics of one named phase. */
struct PhaseStats
{
    double seconds = 0.0;
    std::uint64_t calls = 0;
};

/** Log2 bucket count of HistogramStats: bucket i covers
 *  [2^(i-31), 2^(i-30)), i.e. ~5e-10 up to ~8.6e9, with bucket 0 as
 *  the catch-all for values <= 2^-31 (including zero). */
inline constexpr std::size_t kHistogramBuckets = 64;

/**
 * Log-bucketed distribution of a non-negative value (per-net route
 * seconds, cells expanded per A* search, ...). Holds only integer
 * bucket counts plus exact min/max, so the histogram is bit-identical
 * whatever order pool threads observe its samples in, preserving the
 * registry's determinism contract. Quantiles are derived on demand by
 * linear interpolation within the containing bucket and clamped to
 * [min, max].
 */
struct HistogramStats
{
    std::uint64_t count = 0;
    double min = 0.0;
    double max = 0.0;
    std::array<std::uint64_t, kHistogramBuckets> buckets{};

    /** Bucket of @p value (negatives and zero land in bucket 0). */
    static std::size_t bucketIndex(double value);
    /** Lower edge of bucket @p index (0 for the catch-all bucket). */
    static double bucketLowerBound(std::size_t index);
    /** Upper edge of bucket @p index. */
    static double bucketUpperBound(std::size_t index);

    void observe(double value);

    /** Interpolated quantile, @p q in [0, 1]; 0 when empty. */
    double quantile(double q) const;
};

/**
 * Thread-safe metrics store: every write and snapshot takes the one
 * registry lock. Use the process-wide global() instance unless a test
 * needs isolation.
 */
class Registry
{
  public:
    /** Process-wide registry (leaked: safe during static teardown). */
    static Registry &global();

    /** Add @p seconds of wall time and one call to phase @p name. */
    void addPhase(std::string_view name, double seconds);

    /** Add @p delta events to counter @p name. */
    void addCounter(std::string_view name, std::uint64_t delta);

    /** Record one sample of @p value into histogram @p name. */
    void addHistogram(std::string_view name, double value);

    /** Per-phase totals, sorted by name. */
    std::map<std::string, PhaseStats> phases() const;

    /** Counter totals, sorted by name. */
    std::map<std::string, std::uint64_t> counters() const;

    /** Histograms, sorted by name. */
    std::map<std::string, HistogramStats> histograms() const;

    /** Clear every phase, counter and histogram. */
    void reset();

  private:
    mutable std::mutex mutex_;
    std::map<std::string, PhaseStats> phases_;
    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, HistogramStats> histograms_;
};

/**
 * RAII phase scope, the one instrumentation point of a named phase. Two
 * clock readings feed every consumer: the elapsed seconds go into
 * @p registry under @p name (default: the global registry), and --
 * when tracing / the flight recorder were on at construction -- the
 * phase lands as a trace span (common/trace.hpp; category = the name's
 * subsystem prefix) and a flight-ring span entry (common/flight.hpp).
 *
 * @p name must be a string literal: the tracer keeps the pointer until
 * the trace is exported.
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(const char *name, Registry *registry = nullptr);
    ~ScopedTimer();

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    const char *name_;
    Registry *registry_;
    std::chrono::steady_clock::time_point start_;
    /** Consumers on at the start; one switched on mid-phase is skipped,
     *  since it never saw the phase begin. */
    bool traced_ = false;
    bool flightTracked_ = false;
};

/** Add @p delta to the global registry's counter @p name. */
inline void
count(std::string_view name, std::uint64_t delta = 1)
{
    Registry::global().addCounter(name, delta);
}

/** Record one sample into the global registry's histogram @p name. */
inline void
observe(std::string_view name, double value)
{
    Registry::global().addHistogram(name, value);
}

/**
 * Human-readable phase/counter/histogram table of the global registry,
 * as shown by `youtiao_cli --profile`. The machine-readable form of the
 * same registry is the run record (common/runledger.hpp).
 */
std::string phaseTable();

} // namespace youtiao::metrics

#endif // YOUTIAO_COMMON_METRICS_HPP
