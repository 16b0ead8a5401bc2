/**
 * @file
 * Minimal JSON reading and writing shared by the machine-readable
 * observability outputs: perf records (`BENCH_<name>.json`, parsed by
 * tools/perf_check) and trace files (`youtiao-trace-1`, validated by
 * tests and CI smoke steps).
 *
 * No external dependency: the recursive-descent parser covers the JSON
 * subset those files use (objects, arrays, strings, numbers, booleans,
 * null). Values are exposed through typed getters that throw ConfigError
 * on shape mismatches, so consumers report a named failure instead of
 * crashing on a truncated or hand-edited file.
 */

#ifndef YOUTIAO_COMMON_JSON_HPP
#define YOUTIAO_COMMON_JSON_HPP

#include <map>
#include <string>
#include <vector>

namespace youtiao::json {

/** One parsed JSON value; a tagged union over the supported kinds. */
class Value
{
  public:
    enum class Kind { Null, Boolean, Number, String, Object, Array };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string text;
    std::map<std::string, Value> object;
    std::vector<Value> array;

    bool isNull() const { return kind == Kind::Null; }

    /** Member @p name of an object value; throws when absent. */
    const Value &field(const std::string &name) const;

    /** Member @p name of an object value, or nullptr when absent (or
     *  when this value is not an object). */
    const Value *fieldIf(const std::string &name) const;

    /** Typed getters. @p what names the value in error messages. */
    const std::string &asString(const std::string &what) const;
    double asNumber(const std::string &what) const;
    /** An integral number that @p Int can hold; throws ConfigError for
     *  a fraction or an out-of-range value (casting either would be
     *  lossy or undefined). Instantiated for std::uint64_t and int. */
    template <typename Int>
    Int asInteger(const std::string &what) const;
    const std::map<std::string, Value> &
    asObject(const std::string &what) const;
    const std::vector<Value> &asArray(const std::string &what) const;
};

/**
 * Parse @p text as a single JSON value (trailing garbage rejected).
 * @p context prefixes every error message ("perf record", "trace"), so
 * a failure names the kind of file that was malformed. Throws
 * ConfigError on malformed input.
 */
Value parse(const std::string &text,
            const std::string &context = "json");

/** Escape @p text for embedding inside a double-quoted JSON string. */
std::string escape(const std::string &text);

/**
 * Render a finite double as the shortest decimal string that parses
 * back to the identical bits (std::to_chars shortest round-trip form).
 * Locale-independent, unlike printf's %g family, so perf records and
 * trace files are byte-stable across environments. Non-finite values
 * are not valid JSON numbers; they throw InternalError.
 */
std::string formatDouble(double value);

} // namespace youtiao::json

#endif // YOUTIAO_COMMON_JSON_HPP
