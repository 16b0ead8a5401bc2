/**
 * @file
 * Span tracing for the designer pipeline: where the metrics registry
 * (common/metrics.hpp) answers "how much time did phase X take in
 * total", the tracer answers "where did time go *within* this run" --
 * which net stalled the A* router, which tree dominated a forest fit,
 * how tiles interleaved across the thread pool.
 *
 * Design:
 *  - Every thread appends to one capped event vector under one mutex,
 *    the same scheme as the metrics registry; each event carries the
 *    appending thread's tag (its trace track). A traced run records a
 *    few thousand events from the pool's few coarse tasks, too few to
 *    contend.
 *  - When tracing is disabled -- the default -- every instrumentation
 *    site costs a single relaxed atomic load and branch, so traced
 *    binaries ship the spans everywhere without measurable overhead.
 *  - Events are exported as Chrome trace-event JSON (schema
 *    "youtiao-trace-1", see docs/FILE_FORMATS.md), loadable in Perfetto
 *    or chrome://tracing: complete spans ("X"), instant events ("i"),
 *    and counter tracks ("C").
 *
 * Tracing observes the computation and never feeds back into it, so a
 * traced run is bit-identical to a bare run at any YOUTIAO_THREADS
 * setting. enable()/disable()/toJson() must be called from quiescent
 * points (no pipeline work in flight), like Registry::reset().
 *
 * Entry points: `youtiao_cli --trace FILE` for interactive runs, the
 * `YOUTIAO_TRACE_DIR` environment variable for benches (each bench
 * writes `TRACE_<name>.json` there, see bench/bench_common.hpp).
 */

#ifndef YOUTIAO_COMMON_TRACE_HPP
#define YOUTIAO_COMMON_TRACE_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "common/flight.hpp"

namespace youtiao::trace {

namespace detail {
extern std::atomic<bool> g_enabled;
} // namespace detail

/** True while span/instant/counter events are being collected. The
 *  single relaxed load every instrumentation site pays when disabled. */
inline bool
enabled()
{
    return detail::g_enabled.load(std::memory_order_relaxed);
}

/**
 * Small dense id of the calling thread (0 for the first thread that
 * asks, 1 for the second, ...). Stable for the life of the thread;
 * shared by the tracer (trace "tid" tracks) and the structured logger
 * (log "tid" field) so log lines correlate with trace tracks.
 */
std::uint32_t currentThreadTag();

/**
 * Process-wide trace collector. Use through the free functions and
 * TraceSpan below; the class itself only manages the event buffer and
 * the export.
 */
class Tracer
{
  public:
    /** Process-wide tracer (leaked: safe during static teardown). */
    static Tracer &global();

    /** Drop all buffered events and start collecting; timestamps are
     *  relative to this call. Must be called from a quiescent point. */
    void enable();

    /** Stop collecting. Buffered events stay available for toJson(). */
    void disable();

    /**
     * Chrome trace-event JSON of every buffered event, in append order
     * (schema "youtiao-trace-1"). Call after disable() or with no
     * pipeline work in flight.
     */
    std::string toJson() const;

    /** Write toJson() to @p path. Returns false when the file cannot
     *  be opened or written. */
    bool writeJson(const std::string &path) const;

    // Internal: called by TraceSpan / metrics::ScopedTimer / instant() /
    // counter(). A null span category is derived from the name's
    // subsystem prefix at export ("design.partition" -> "design").
    void recordComplete(const char *name, const char *category,
                        std::uint64_t start_ns, std::uint64_t dur_ns);
    void recordInstant(const char *name, const char *category,
                       std::uint64_t ts_ns);
    void recordCounter(const char *name, const char *category,
                       std::uint64_t ts_ns, double value);

    /** Nanoseconds since enable() on the tracer's clock. */
    std::uint64_t nowNs() const;

    /** Nanoseconds from enable() to @p t (0 if @p t came first). */
    std::uint64_t
    sinceEnableNs(std::chrono::steady_clock::time_point t) const;

  private:
    Tracer();
    /** The global() instance is leaked, never destroyed. */
    ~Tracer() = delete;
    struct Impl;
    Impl *impl_;
};

/**
 * RAII span: marks a named region of the calling thread's timeline.
 * Costs one relaxed load when tracing is disabled. Spans on one thread
 * nest like scopes do, so per-thread tracks are always well-nested.
 * When the flight recorder is armed (flight::install) each completed
 * span also lands in the calling thread's crash ring, so every traced
 * site doubles as post-mortem breadcrumbs for free. A phase timed by
 * metrics::ScopedTimer needs no TraceSpan: the timer records both.
 */
class TraceSpan
{
  public:
    explicit TraceSpan(const char *name, const char *category = "youtiao")
    {
        if (enabled() || flight::enabled()) {
            name_ = name;
            category_ = category;
            startNs_ = Tracer::global().nowNs();
        }
    }

    ~TraceSpan()
    {
        if (name_ != nullptr) {
            Tracer &t = Tracer::global();
            const std::uint64_t end = t.nowNs();
            if (enabled())
                t.recordComplete(name_, category_, startNs_,
                                 end - startNs_);
            if (flight::enabled())
                flight::recordSpan(name_, end - startNs_);
        }
    }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

  private:
    const char *name_ = nullptr;
    const char *category_ = nullptr;
    std::uint64_t startNs_ = 0;
};

/** Mark a point in time on the calling thread's track. */
inline void
instant(const char *name, const char *category = "youtiao")
{
    if (enabled()) {
        Tracer &t = Tracer::global();
        t.recordInstant(name, category, t.nowNs());
    }
}

/** Record a sample on the named counter track (rendered as a graph
 *  over time by Perfetto/chrome://tracing). */
inline void
counter(const char *name, double value,
        const char *category = "youtiao")
{
    if (enabled()) {
        Tracer &t = Tracer::global();
        t.recordCounter(name, category, t.nowNs(), value);
    }
}

} // namespace youtiao::trace

#endif // YOUTIAO_COMMON_TRACE_HPP
