/**
 * @file
 * Structured-logger suite: logfmt line rendering (quoting, escaping,
 * numeric fields), level names and thresholds, and sink capture with
 * level filtering.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"

namespace youtiao {
namespace {

/** RAII: capture log lines into a vector, restore stderr on exit. */
class CaptureSink
{
  public:
    CaptureSink()
    {
        log::setSink([this](std::string_view line) {
            lines_.push_back(std::string(line));
        });
    }
    ~CaptureSink()
    {
        log::setSink(nullptr);
    }
    const std::vector<std::string> &lines() const
    {
        return lines_;
    }

  private:
    std::vector<std::string> lines_;
};

/** RAII: set the level for one test, restore the previous on exit. */
class LevelGuard
{
  public:
    explicit LevelGuard(log::Level l)
        : previous_(log::level())
    {
        log::setLevel(l);
    }
    ~LevelGuard()
    {
        log::setLevel(previous_);
    }

  private:
    log::Level previous_;
};

TEST(Log, FormatLineRendersLevelTsTidMsgAndFields)
{
    const std::string line = log::formatLine(
        log::Level::Info, "chip designed",
        {{"qubits", 64}, {"cost_usd", 2.5}, {"ok", true}}, 1.5, 3);
    EXPECT_EQ(line, "level=info ts=1.500000 tid=3 msg=\"chip designed\" "
                    "qubits=64 cost_usd=2.5 ok=true");
}

TEST(Log, FormatLineQuotesAndEscapesStringValues)
{
    const std::string line = log::formatLine(
        log::Level::Warn, "msg",
        {{"bare", "simple"}, {"spaced", "a b"}, {"quoted", "say \"hi\""}},
        0.0, 0);
    EXPECT_NE(line.find("bare=simple"), std::string::npos);
    EXPECT_NE(line.find("spaced=\"a b\""), std::string::npos);
    EXPECT_NE(line.find("quoted=\"say \\\"hi\\\"\""), std::string::npos);
}

TEST(Log, FormatLineQuotesValuesWithEqualsAndBackslash)
{
    // '=' or '\' in a bare value would desynchronize every downstream
    // logfmt parser; both force quoting.
    const std::string line = log::formatLine(
        log::Level::Warn, "msg",
        {{"eq", "a=b"}, {"bs", "a\\b"}, {"empty", ""}}, 0.0, 0);
    EXPECT_NE(line.find("eq=\"a=b\""), std::string::npos);
    EXPECT_NE(line.find("bs=\"a\\\\b\""), std::string::npos);
    EXPECT_NE(line.find("empty=\"\""), std::string::npos);
}

TEST(Log, FormatLineEscapesControlBytes)
{
    // Raw control bytes would break the one-record-per-line property;
    // \n, \t, \r get mnemonic escapes, everything else renders \xHH.
    const std::string line = log::formatLine(
        log::Level::Warn, "msg",
        {{"nl", "a\nb"},
         {"tab", "a\tb"},
         {"cr", "a\rb"},
         {"esc", std::string("a\x1b") + "b"},
         {"nul", std::string("a\0b", 3)}},
        0.0, 0);
    EXPECT_EQ(line.find('\n'), std::string::npos);
    EXPECT_EQ(line.find('\r'), std::string::npos);
    EXPECT_NE(line.find("nl=\"a\\nb\""), std::string::npos);
    EXPECT_NE(line.find("tab=\"a\\tb\""), std::string::npos);
    EXPECT_NE(line.find("cr=\"a\\rb\""), std::string::npos);
    EXPECT_NE(line.find("esc=\"a\\x1bb\""), std::string::npos);
    EXPECT_NE(line.find("nul=\"a\\x00b\""), std::string::npos);
}

TEST(Log, FormatLineSanitizesKeys)
{
    // A space, quote, or '=' in a key would corrupt the whole record;
    // offending bytes become '_' instead of trusting the call site.
    const std::string line = log::formatLine(
        log::Level::Warn, "msg", {{"bad key=1", "v"}, {"a\"b", "w"}},
        0.0, 0);
    EXPECT_NE(line.find(" bad_key_1=v"), std::string::npos);
    EXPECT_NE(line.find(" a_b=w"), std::string::npos);
}

TEST(Log, MessageWithNewlineStaysOneLine)
{
    const std::string line = log::formatLine(
        log::Level::Error, "multi\nline\rmessage", {}, 0.0, 0);
    EXPECT_EQ(line.find('\n'), std::string::npos);
    EXPECT_EQ(line.find('\r'), std::string::npos);
    EXPECT_NE(line.find("msg=\"multi\\nline\\rmessage\""),
              std::string::npos);
}

TEST(Log, LevelNamesRoundTrip)
{
    for (log::Level l : {log::Level::Error, log::Level::Warn,
                         log::Level::Info, log::Level::Debug}) {
        const LevelGuard guard(log::Level::Error);
        EXPECT_TRUE(log::setLevelByName(log::levelName(l)));
        EXPECT_EQ(log::level(), l);
    }
    EXPECT_FALSE(log::setLevelByName("loud"));
    EXPECT_FALSE(log::setLevelByName(""));
}

TEST(Log, ThresholdFiltersLowerPriorityLines)
{
    const LevelGuard guard(log::Level::Warn);
    const CaptureSink sink;
    log::error("e");
    log::warn("w");
    log::info("i");
    log::debug("d");
    ASSERT_EQ(sink.lines().size(), 2u);
    EXPECT_NE(sink.lines()[0].find("level=error"), std::string::npos);
    EXPECT_NE(sink.lines()[1].find("level=warn"), std::string::npos);
}

TEST(Log, SinkReceivesNewlineTerminatedLines)
{
    const LevelGuard guard(log::Level::Info);
    const CaptureSink sink;
    log::info("hello", {{"k", "v"}});
    ASSERT_EQ(sink.lines().size(), 1u);
    const std::string &line = sink.lines()[0];
    EXPECT_EQ(line.back(), '\n');
    EXPECT_NE(line.find("msg=\"hello\""), std::string::npos);
    EXPECT_NE(line.find("k=v"), std::string::npos);
}

TEST(Log, TimestampCountsFromProcessStart)
{
    // ctest runs each case as its own process, so this is the first line
    // the process logs: its `ts` must count from process start, not from
    // the line itself.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const LevelGuard guard(log::Level::Info);
    const CaptureSink sink;
    log::info("first line");
    ASSERT_EQ(sink.lines().size(), 1u);
    const std::string &line = sink.lines()[0];
    const std::size_t at = line.find(" ts=");
    ASSERT_NE(at, std::string::npos) << line;
    EXPECT_GT(std::stod(line.substr(at + 4)), 0.0) << line;
}

TEST(Log, EnabledMatchesThreshold)
{
    const LevelGuard guard(log::Level::Info);
    EXPECT_TRUE(log::enabled(log::Level::Error));
    EXPECT_TRUE(log::enabled(log::Level::Info));
    EXPECT_FALSE(log::enabled(log::Level::Debug));
}

} // namespace
} // namespace youtiao
