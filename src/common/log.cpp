#include "common/log.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "common/flight.hpp"
#include "common/trace.hpp"

namespace youtiao::log {

namespace {

int
initialLevel()
{
    const char *env = std::getenv("YOUTIAO_LOG");
    if (env == nullptr || *env == '\0')
        return static_cast<int>(Level::Warn);
    if (std::strcmp(env, "error") == 0)
        return static_cast<int>(Level::Error);
    if (std::strcmp(env, "warn") == 0)
        return static_cast<int>(Level::Warn);
    if (std::strcmp(env, "info") == 0)
        return static_cast<int>(Level::Info);
    if (std::strcmp(env, "debug") == 0)
        return static_cast<int>(Level::Debug);
    std::fprintf(stderr,
                 "warning: YOUTIAO_LOG='%s' is not one of "
                 "error|warn|info|debug; using warn\n",
                 env);
    return static_cast<int>(Level::Warn);
}

/** Process start reference for the `ts` field, fixed when the library
 *  loads (static initialization, before main), not at the first line. */
const std::chrono::steady_clock::time_point kProcessT0 =
    std::chrono::steady_clock::now();

struct Sink
{
    std::mutex mutex;
    std::function<void(std::string_view)> fn;
};

Sink &
sink()
{
    // Leaked: logging may happen during static destruction.
    static Sink *instance = new Sink;
    return *instance;
}

/** True when @p value can render bare (no quotes) in logfmt. */
bool
bareSafe(const std::string &value)
{
    if (value.empty())
        return false;
    for (char c : value) {
        if (c == ' ' || c == '"' || c == '=' || c == '\\' ||
            static_cast<unsigned char>(c) < 0x20)
            return false;
    }
    return true;
}

void
appendQuoted(std::string &out, std::string_view value)
{
    out += '"';
    for (char c : value) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            // Remaining control bytes would break the one-record-per-
            // line property if emitted raw; render them as \xHH.
            if (static_cast<unsigned char>(c) < 0x20) {
                static const char hex[] = "0123456789abcdef";
                const unsigned char u = static_cast<unsigned char>(c);
                out += "\\x";
                out += hex[u >> 4];
                out += hex[u & 0x0f];
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

/** Keys are caller-controlled literals, but a stray space or '=' in one
 *  would corrupt every downstream logfmt parser; replace offending
 *  bytes with '_' rather than trusting call sites. */
void
appendKey(std::string &out, std::string_view key)
{
    for (char c : key) {
        if (c == ' ' || c == '"' || c == '=' || c == '\\' ||
            static_cast<unsigned char>(c) < 0x20)
            out += '_';
        else
            out += c;
    }
}

} // namespace

namespace detail {

std::atomic<int> &
levelVar()
{
    static std::atomic<int> level{initialLevel()};
    return level;
}

} // namespace detail

void
setLevel(Level l)
{
    detail::levelVar().store(static_cast<int>(l),
                             std::memory_order_relaxed);
}

bool
setLevelByName(std::string_view name)
{
    if (name == "error")
        setLevel(Level::Error);
    else if (name == "warn")
        setLevel(Level::Warn);
    else if (name == "info")
        setLevel(Level::Info);
    else if (name == "debug")
        setLevel(Level::Debug);
    else
        return false;
    return true;
}

const char *
levelName(Level l)
{
    switch (l) {
      case Level::Error:
        return "error";
      case Level::Warn:
        return "warn";
      case Level::Info:
        return "info";
      case Level::Debug:
        return "debug";
    }
    return "unknown";
}

Field::Field(std::string_view k, double v)
    : key(k), numeric(true)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    value = buf;
}

std::string
formatLine(Level l, std::string_view msg,
           std::initializer_list<Field> fields, double ts_seconds,
           std::uint32_t tid)
{
    std::string out;
    out.reserve(64 + msg.size());
    out += "level=";
    out += levelName(l);
    char buf[48];
    std::snprintf(buf, sizeof buf, " ts=%.6f tid=%u msg=", ts_seconds,
                  tid);
    out += buf;
    appendQuoted(out, msg);
    for (const Field &field : fields) {
        out += ' ';
        appendKey(out, field.key);
        out += '=';
        if (field.numeric || bareSafe(field.value))
            out += field.value;
        else
            appendQuoted(out, field.value);
    }
    return out;
}

void
write(Level l, std::string_view msg,
      std::initializer_list<Field> fields)
{
    if (!enabled(l))
        return;
    const double ts =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      kProcessT0)
            .count();
    std::string line =
        formatLine(l, msg, fields, ts, trace::currentThreadTag());
    if (flight::enabled())
        flight::recordText(flight::EntryKind::Log, line);
    line += '\n';
    Sink &s = sink();
    const std::lock_guard<std::mutex> lock(s.mutex);
    if (s.fn) {
        s.fn(line);
    } else {
        std::fwrite(line.data(), 1, line.size(), stderr);
        std::fflush(stderr);
    }
}

void
setSink(std::function<void(std::string_view)> sink_fn)
{
    Sink &s = sink();
    const std::lock_guard<std::mutex> lock(s.mutex);
    s.fn = std::move(sink_fn);
}

} // namespace youtiao::log
