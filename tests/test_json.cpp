/**
 * @file
 * Tests for the shared JSON helpers, centered on formatDouble: every
 * finite double must render to a locale-independent decimal string that
 * parses back to the identical bits (shortest round-trip form). The
 * perf-record and trace writers rely on this for byte-stable files, so
 * a regression here silently corrupts committed baselines.
 */

#include <gtest/gtest.h>

#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numbers>

#include "common/error.hpp"
#include "common/json.hpp"

namespace youtiao {
namespace {

/** Parse @p text back to a double exactly as a JSON reader would. */
double
reparse(const std::string &text)
{
    double out = 0.0;
    const auto result = std::from_chars(
        text.data(), text.data() + text.size(), out);
    EXPECT_EQ(result.ec, std::errc{}) << text;
    EXPECT_EQ(result.ptr, text.data() + text.size()) << text;
    return out;
}

/** Bit pattern equality -- distinguishes -0.0 from 0.0. */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(Json, FormatDoubleRoundTripsExactly)
{
    const double cases[] = {
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.1,
        // Classic shortest-repr stress values.
        1.0 / 3.0,
        std::numbers::pi,
        std::numbers::e,
        2.2250738585072011e-308, // near the subnormal boundary
        1e-300,
        5e-324, // smallest subnormal
        DBL_MAX,
        DBL_MIN,
        std::numeric_limits<double>::epsilon(),
        123456789.123456789,
        9007199254740993.0, // 2^53 + 1 (rounds; still must round-trip)
        6.62607015e-34,     // Planck
        1.602176634e-19,    // elementary charge
    };
    for (const double value : cases) {
        const std::string text = json::formatDouble(value);
        EXPECT_TRUE(sameBits(reparse(text), value))
            << "value " << value << " rendered as '" << text << "'";
    }
}

TEST(Json, FormatDoubleSweepsRandomBitPatterns)
{
    // Deterministic xorshift sweep over the double bit space; skip
    // non-finite patterns (those must throw, checked below).
    std::uint64_t state = 0x9E3779B97F4A7C15ull;
    for (int i = 0; i < 2000; ++i) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        double value;
        std::memcpy(&value, &state, sizeof value);
        if (!std::isfinite(value))
            continue;
        const std::string text = json::formatDouble(value);
        EXPECT_TRUE(sameBits(reparse(text), value))
            << "bits 0x" << std::hex << state;
    }
}

TEST(Json, FormatDoubleIntegersStayIntegral)
{
    // Whole numbers should still parse as JSON numbers; format is
    // shortest-form so "1" or "1e2"-style are both acceptable, but the
    // value must survive.
    for (const double value : {1.0, 42.0, -17.0, 1e6, 123456.0}) {
        const std::string text = json::formatDouble(value);
        EXPECT_EQ(reparse(text), value) << text;
        // No locale artifacts: a comma would break every JSON consumer.
        EXPECT_EQ(text.find(','), std::string::npos) << text;
    }
}

TEST(Json, FormatDoubleRejectsNonFinite)
{
    EXPECT_THROW((void)json::formatDouble(
                     std::numeric_limits<double>::infinity()),
                 InternalError);
    EXPECT_THROW((void)json::formatDouble(
                     -std::numeric_limits<double>::infinity()),
                 InternalError);
    EXPECT_THROW((void)json::formatDouble(
                     std::numeric_limits<double>::quiet_NaN()),
                 InternalError);
}

TEST(Json, ParseReadsFormatDoubleOutput)
{
    // End to end through the project's own parser: a number rendered by
    // formatDouble must come back bit-identical via json::parse.
    for (const double value :
         {0.1, std::numbers::pi, 1e-300, -2.5e17, DBL_MAX}) {
        const std::string text =
            "{\"v\": " + json::formatDouble(value) + "}";
        const json::Value parsed = json::parse(text, "test");
        EXPECT_TRUE(
            sameBits(parsed.field("v").asNumber("v"), value))
            << text;
    }
}

TEST(Json, AsIntegerChecksIntegralityAndRange)
{
    const auto value = [](const char *text) {
        return json::parse(text, "test");
    };
    EXPECT_EQ(value("2147483647").asInteger<int>("v"),
              std::numeric_limits<int>::max());
    EXPECT_EQ(value("-2147483648").asInteger<int>("v"),
              std::numeric_limits<int>::min());
    EXPECT_THROW(value("2147483648").asInteger<int>("v"), ConfigError);
    EXPECT_THROW(value("-2147483649").asInteger<int>("v"), ConfigError);
    EXPECT_EQ(value("-0").asInteger<std::uint64_t>("v"), 0u);
    EXPECT_THROW(value("-1").asInteger<std::uint64_t>("v"), ConfigError);
    EXPECT_THROW(value("0.5").asInteger<std::uint64_t>("v"), ConfigError);
    EXPECT_THROW(value("\"7\"").asInteger<int>("v"), ConfigError);
}

TEST(Json, EscapeHandlesControlCharacters)
{
    EXPECT_EQ(json::escape("plain"), "plain");
    EXPECT_EQ(json::escape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(json::escape("line\nbreak"), "line\\nbreak");
}

} // namespace
} // namespace youtiao
