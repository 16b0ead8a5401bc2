#include "common/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <type_traits>

#include "common/error.hpp"

namespace youtiao::json {

const Value &
Value::field(const std::string &name) const
{
    requireConfig(kind == Kind::Object,
                  "'" + name + "' looked up on a non-object value");
    const auto it = object.find(name);
    requireConfig(it != object.end(), "missing field '" + name + "'");
    return it->second;
}

const Value *
Value::fieldIf(const std::string &name) const
{
    if (kind != Kind::Object)
        return nullptr;
    const auto it = object.find(name);
    return it != object.end() ? &it->second : nullptr;
}

const std::string &
Value::asString(const std::string &what) const
{
    requireConfig(kind == Kind::String, what + " is not a string");
    return text;
}

double
Value::asNumber(const std::string &what) const
{
    requireConfig(kind == Kind::Number, what + " is not a number");
    return number;
}

template <typename Int>
Int
Value::asInteger(const std::string &what) const
{
    const double n = asNumber(what);
    requireConfig(n == std::trunc(n), what + " is not an integer");
    // Int holds [-2^digits, 2^digits) when signed and [0, 2^digits)
    // when not; both bounds are exact doubles, so these comparisons
    // decide representability exactly.
    const double bound =
        std::ldexp(1.0, std::numeric_limits<Int>::digits);
    const double low = std::is_signed_v<Int> ? -bound : 0.0;
    requireConfig(n >= low && n < bound, what + " is out of range");
    return static_cast<Int>(n);
}

template std::uint64_t
Value::asInteger<std::uint64_t>(const std::string &what) const;
template int Value::asInteger<int>(const std::string &what) const;

const std::map<std::string, Value> &
Value::asObject(const std::string &what) const
{
    requireConfig(kind == Kind::Object, what + " is not an object");
    return object;
}

const std::vector<Value> &
Value::asArray(const std::string &what) const
{
    requireConfig(kind == Kind::Array, what + " is not an array");
    return array;
}

namespace {

class Parser
{
  public:
    Parser(const std::string &text, const std::string &context)
        : text_(text), context_(context)
    {}

    Value parse()
    {
        Value value = parseValue();
        skipSpace();
        require(at_ == text_.size(),
                "trailing characters after JSON value");
        return value;
    }

  private:
    void require(bool cond, const std::string &msg)
    {
        requireConfig(cond, context_ + ": " + msg);
    }

    void skipSpace()
    {
        while (at_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[at_])) != 0)
            ++at_;
    }

    char peek()
    {
        skipSpace();
        require(at_ < text_.size(), "unexpected end of JSON");
        return text_[at_];
    }

    void expect(char c)
    {
        require(peek() == c, std::string("expected '") + c +
                                 "' at offset " + std::to_string(at_));
        ++at_;
    }

    bool consume(char c)
    {
        if (at_ < text_.size() && peek() == c) {
            ++at_;
            return true;
        }
        return false;
    }

    bool consumeWord(const char *word)
    {
        const std::size_t len = std::char_traits<char>::length(word);
        if (text_.compare(at_, len, word) == 0) {
            at_ += len;
            return true;
        }
        return false;
    }

    Value parseValue()
    {
        const char c = peek();
        Value value;
        switch (c) {
          case '{':
          case '[': {
            require(++depth_ <= kMaxDepth,
                    "nesting exceeds the depth limit of " +
                        std::to_string(kMaxDepth) + " at offset " +
                        std::to_string(at_));
            value = c == '{' ? parseObject() : parseArray();
            --depth_;
            return value;
          }
          case '"':
            value.kind = Value::Kind::String;
            value.text = parseString();
            return value;
          case 't':
          case 'f':
            value.kind = Value::Kind::Boolean;
            if (consumeWord("true")) {
                value.boolean = true;
                return value;
            }
            if (consumeWord("false"))
                return value;
            break;
          case 'n':
            if (consumeWord("null"))
                return value;
            break;
          default:
            return parseNumber();
        }
        require(false,
                "malformed JSON value at offset " + std::to_string(at_));
        return value; // unreachable
    }

    Value parseObject()
    {
        Value value;
        value.kind = Value::Kind::Object;
        expect('{');
        if (consume('}'))
            return value;
        while (true) {
            require(peek() == '"', "object key must be a string");
            const std::string key = parseString();
            expect(':');
            value.object[key] = parseValue();
            if (consume(','))
                continue;
            expect('}');
            return value;
        }
    }

    Value parseArray()
    {
        Value value;
        value.kind = Value::Kind::Array;
        expect('[');
        if (consume(']'))
            return value;
        while (true) {
            value.array.push_back(parseValue());
            if (consume(','))
                continue;
            expect(']');
            return value;
        }
    }

    std::string parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            require(at_ < text_.size(), "unterminated string");
            const char c = text_[at_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            require(at_ < text_.size(), "unterminated escape");
            const char esc = text_[at_++];
            switch (esc) {
              case '"':
              case '\\':
              case '/':
                out += esc;
                break;
              case 'n':
                out += '\n';
                break;
              case 't':
                out += '\t';
                break;
              case 'r':
                out += '\r';
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'u': {
                require(at_ + 4 <= text_.size(),
                        "truncated \\u escape");
                unsigned code = 0;
                for (int k = 0; k < 4; ++k) {
                    const char h = text_[at_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        require(false, "bad \\u digit");
                }
                // The files are ASCII; anything else round-trips as a
                // replacement byte rather than full UTF-16 handling.
                out += code < 0x80 ? static_cast<char>(code) : '?';
                break;
              }
              default:
                require(false, "unknown escape");
            }
        }
    }

    Value parseNumber()
    {
        skipSpace();
        const std::size_t start = at_;
        while (at_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[at_])) !=
                    0 ||
                text_[at_] == '-' || text_[at_] == '+' ||
                text_[at_] == '.' || text_[at_] == 'e' ||
                text_[at_] == 'E'))
            ++at_;
        require(at_ > start,
                "malformed number at offset " + std::to_string(start));
        const std::string token = text_.substr(start, at_ - start);
        char *end = nullptr;
        const double v = std::strtod(token.c_str(), &end);
        require(end != nullptr && *end == '\0' && std::isfinite(v),
                "malformed number '" + token + "'");
        Value value;
        value.kind = Value::Kind::Number;
        value.number = v;
        return value;
    }

    const std::string &text_;
    const std::string &context_;
    std::size_t at_ = 0;
    /** Arrays and objects open around the current position. */
    std::size_t depth_ = 0;
};

} // namespace

Value
parse(const std::string &text, const std::string &context)
{
    return Parser(text, context).parse();
}

std::string
escape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
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
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
formatDouble(double value)
{
    requireInternal(std::isfinite(value),
                    "non-finite double in a JSON writer");
    char buf[32];
    const auto res =
        std::to_chars(buf, buf + sizeof buf, value);
    requireInternal(res.ec == std::errc(),
                    "double did not fit the to_chars buffer");
    return std::string(buf, res.ptr);
}

} // namespace youtiao::json
