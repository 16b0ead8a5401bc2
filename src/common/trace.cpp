#include "common/trace.hpp"

#include "common/atomic_io.hpp"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <sstream>
#include <vector>

#include "common/json.hpp"

namespace youtiao::trace {

namespace detail {
std::atomic<bool> g_enabled{false};
} // namespace detail

std::uint32_t
currentThreadTag()
{
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t tag =
        next.fetch_add(1, std::memory_order_relaxed);
    return tag;
}

namespace {

/** One buffered trace event. Names are string literals at every call
 *  site, so storing the pointers is allocation-free and safe. A null
 *  category (ScopedTimer spans) is derived from the name at export. */
struct Event
{
    const char *name = nullptr;
    const char *category = nullptr;
    char phase = 'X';
    std::uint32_t tid = 0;
    std::uint64_t tsNs = 0;
    std::uint64_t durNs = 0;
    double value = 0.0;
};

/** Event cap: ~2M events (~100 MB) would be a runaway trace; overflow
 *  is counted, not fatal. */
constexpr std::size_t kMaxEvents = std::size_t{1} << 21;

} // namespace

/** Every thread appends under one mutex: a traced run records a few
 *  thousand events from the pool's few coarse tasks, too few to
 *  contend. */
struct Tracer::Impl
{
    mutable std::mutex mutex;
    std::vector<Event> events;
    std::uint64_t dropped = 0;
    std::chrono::steady_clock::time_point t0 =
        std::chrono::steady_clock::now();

    void append(Event event)
    {
        event.tid = currentThreadTag();
        const std::lock_guard<std::mutex> lock(mutex);
        if (events.size() >= kMaxEvents) {
            ++dropped;
            return;
        }
        events.push_back(event);
    }
};

Tracer::Tracer()
    : impl_(new Impl)
{}

Tracer &
Tracer::global()
{
    // Leaked on purpose: spans may close during static destruction,
    // after local statics would already be gone.
    static Tracer *instance = new Tracer;
    return *instance;
}

void
Tracer::enable()
{
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->events.clear();
    impl_->dropped = 0;
    impl_->t0 = std::chrono::steady_clock::now();
    detail::g_enabled.store(true, std::memory_order_release);
}

void
Tracer::disable()
{
    detail::g_enabled.store(false, std::memory_order_release);
}

std::uint64_t
Tracer::nowNs() const
{
    return sinceEnableNs(std::chrono::steady_clock::now());
}

std::uint64_t
Tracer::sinceEnableNs(std::chrono::steady_clock::time_point t) const
{
    if (t < impl_->t0)
        return 0;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - impl_->t0)
            .count());
}

void
Tracer::recordComplete(const char *name, const char *category,
                       std::uint64_t start_ns, std::uint64_t dur_ns)
{
    Event event;
    event.name = name;
    event.category = category;
    event.phase = 'X';
    event.tsNs = start_ns;
    event.durNs = dur_ns;
    impl_->append(event);
}

void
Tracer::recordInstant(const char *name, const char *category,
                      std::uint64_t ts_ns)
{
    Event event;
    event.name = name;
    event.category = category;
    event.phase = 'i';
    event.tsNs = ts_ns;
    impl_->append(event);
}

void
Tracer::recordCounter(const char *name, const char *category,
                      std::uint64_t ts_ns, double value)
{
    Event event;
    event.name = name;
    event.category = category;
    event.phase = 'C';
    event.tsNs = ts_ns;
    event.value = value;
    impl_->append(event);
}

namespace {

/** Microseconds with nanosecond resolution -- the trace-event "ts"
 *  and "dur" unit Perfetto and chrome://tracing expect. */
std::string
micros(std::uint64_t ns)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%llu.%03llu",
                  static_cast<unsigned long long>(ns / 1000),
                  static_cast<unsigned long long>(ns % 1000));
    return buf;
}

/** @p e's own category, else its name's subsystem prefix
 *  ("design.partition" -> "design"). */
std::string
categoryOf(const Event &e)
{
    if (e.category != nullptr)
        return e.category;
    const char *dot = std::strchr(e.name, '.');
    return dot != nullptr ? std::string(e.name, dot) : "youtiao";
}

} // namespace

std::string
Tracer::toJson() const
{
    std::ostringstream out;
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    out << "{\n";
    out << "  \"schema\": \"youtiao-trace-1\",\n";
    out << "  \"displayTimeUnit\": \"ms\",\n";
    out << "  \"traceEvents\": [";
    bool first = true;
    for (const Event &e : impl_->events) {
        out << (first ? "\n" : ",\n");
        first = false;
        out << "    {\"name\": \"" << json::escape(e.name)
            << "\", \"cat\": \"" << json::escape(categoryOf(e))
            << "\", \"ph\": \"" << e.phase
            << "\", \"pid\": 1, \"tid\": " << e.tid
            << ", \"ts\": " << micros(e.tsNs);
        switch (e.phase) {
          case 'X':
            out << ", \"dur\": " << micros(e.durNs);
            break;
          case 'i':
            out << ", \"s\": \"t\"";
            break;
          case 'C':
            out << ", \"args\": {\"value\": "
                << json::formatDouble(e.value) << "}";
            break;
          default:
            break;
        }
        out << "}";
    }
    out << (first ? "],\n" : "\n  ],\n");
    out << "  \"droppedEvents\": " << impl_->dropped << "\n";
    out << "}\n";
    return out.str();
}

bool
Tracer::writeJson(const std::string &path) const
{
    // Atomic (temp + fsync + rename): a crash mid-write leaves either
    // the previous trace or none, never a truncated JSON.
    return io::atomicWriteFileNoThrow(path, toJson());
}

} // namespace youtiao::trace
