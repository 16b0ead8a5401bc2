/**
 * @file
 * Flight-recorder suite: ring recording and the dump format, the
 * TraceSpan, ScopedTimer and log hooks, the DesignError auto-dump, and
 * -- the part the recorder exists for -- a forked child that crashes
 * with a fatal signal and still leaves a parseable dump containing its
 * last span.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/error.hpp"
#include "common/expected.hpp"
#include "common/flight.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "test_support.hpp"

namespace youtiao {
namespace {

/** install() is first-call-wins per process; every test in it funnels
 *  through the same installation and dump path, in a directory named
 *  after the first test (and the pid) and removed at exit. */
void
ensureInstalled()
{
    static const TestDir dir;
    static const bool armed = flight::install("unit", dir.path().c_str());
    (void)armed;
    ASSERT_TRUE(flight::enabled());
}

std::string
readDump()
{
    std::ifstream in(flight::dumpPath());
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Parse the current dump and return it; fails the test on bad JSON. */
json::Value
parseDump()
{
    const std::string text = readDump();
    EXPECT_FALSE(text.empty());
    return json::parse(text, "flight dump");
}

/** True when some entry's text contains @p needle. */
bool
dumpContains(const json::Value &dump, const std::string &needle)
{
    for (const json::Value &entry :
         dump.field("entries").asArray("entries")) {
        const std::string &text =
            entry.field("text").asString("entry text");
        if (text.find(needle) != std::string::npos)
            return true;
    }
    return false;
}

TEST(Flight, InstallSetsPathAndExplicitDumpParses)
{
    ensureInstalled();
    flight::resetForTest();
    flight::recordSpan("unit.manual_span", 1234);
    flight::note("unit breadcrumb");
    ASSERT_TRUE(flight::dump("unit_test"));
    EXPECT_GE(flight::dumpCount(), 1u);

    const json::Value dump = parseDump();
    EXPECT_EQ(dump.field("schema").asString("schema"),
              "youtiao-flight-1");
    EXPECT_EQ(dump.field("tool").asString("tool"), "unit");
    EXPECT_EQ(dump.field("reason").asString("reason"), "unit_test");
    EXPECT_TRUE(dumpContains(dump, "unit.manual_span"));
    EXPECT_TRUE(dumpContains(dump, "unit breadcrumb"));
    bool saw_span = false;
    for (const json::Value &entry :
         dump.field("entries").asArray("entries")) {
        if (entry.field("text").asString("text") != "unit.manual_span")
            continue;
        saw_span = true;
        EXPECT_EQ(entry.field("kind").asString("kind"), "span");
        EXPECT_EQ(entry.field("dur_ns").asNumber("dur_ns"), 1234.0);
    }
    EXPECT_TRUE(saw_span);
}

TEST(Flight, TraceSpanDestructorLandsInRing)
{
    ensureInstalled();
    flight::resetForTest();
    // The tracer itself stays disabled: the flight hook alone must be
    // enough for the span to be retained.
    {
        const trace::TraceSpan span("unit.traced_span", "test");
    }
    ASSERT_TRUE(flight::dump("span_test"));
    EXPECT_TRUE(dumpContains(parseDump(), "unit.traced_span"));
}

TEST(Flight, LoneScopedTimerYieldsOneSpanAndOneRingEntry)
{
    // One phase scope feeds both consumers: the trace gets exactly one
    // span, categorized by the name's subsystem prefix, and the armed
    // ring exactly one span entry -- no TraceSpan beside the timer.
    ensureInstalled();
    flight::resetForTest();
    trace::Tracer &tracer = trace::Tracer::global();
    tracer.enable();
    {
        const metrics::ScopedTimer timer("unit.timed_phase");
    }
    tracer.disable();

    const json::Value trace = json::parse(tracer.toJson(), "trace");
    std::size_t spans = 0;
    for (const json::Value &event :
         trace.field("traceEvents").asArray("traceEvents")) {
        if (event.field("name").asString("name") != "unit.timed_phase")
            continue;
        ++spans;
        EXPECT_EQ(event.field("cat").asString("cat"), "unit");
        EXPECT_EQ(event.field("ph").asString("ph"), "X");
    }
    EXPECT_EQ(spans, 1u);

    ASSERT_TRUE(flight::dump("timer_test"));
    const json::Value dump = parseDump();
    std::size_t entries = 0;
    for (const json::Value &entry :
         dump.field("entries").asArray("entries")) {
        if (entry.field("text").asString("text") != "unit.timed_phase")
            continue;
        ++entries;
        EXPECT_EQ(entry.field("kind").asString("kind"), "span");
    }
    EXPECT_EQ(entries, 1u);
}

TEST(Flight, LogLinesLandInRing)
{
    ensureInstalled();
    flight::resetForTest();
    log::warn("flight log marker", {{"k", "v"}});
    ASSERT_TRUE(flight::dump("log_test"));
    const json::Value dump = parseDump();
    EXPECT_TRUE(dumpContains(dump, "flight log marker"));
    bool saw_log = false;
    for (const json::Value &entry :
         dump.field("entries").asArray("entries")) {
        if (entry.field("text")
                .asString("text")
                .find("flight log marker") != std::string::npos) {
            saw_log = true;
            EXPECT_EQ(entry.field("kind").asString("kind"), "log");
        }
    }
    EXPECT_TRUE(saw_log);
}

TEST(Flight, DesignErrorConstructionDumpsAutomatically)
{
    ensureInstalled();
    flight::resetForTest();
    const std::uint64_t dumps_before = flight::dumpCount();
    const DesignError error(DesignStage::FrequencyAllocation,
                            "unit flight marker");
    EXPECT_GT(flight::dumpCount(), dumps_before);
    const json::Value dump = parseDump();
    EXPECT_EQ(dump.field("reason").asString("reason"), "design_error");
    EXPECT_TRUE(
        dumpContains(dump, "frequency_allocation: unit flight marker"));
}

TEST(Flight, LongTextIsTruncatedNotCorrupted)
{
    ensureInstalled();
    flight::resetForTest();
    const std::string long_text(500, 'x');
    flight::recordText(flight::EntryKind::Note, long_text);
    ASSERT_TRUE(flight::dump("truncate_test"));
    const json::Value dump = parseDump();
    bool found = false;
    for (const json::Value &entry :
         dump.field("entries").asArray("entries")) {
        const std::string &text =
            entry.field("text").asString("text");
        if (text.find("xxxx") == std::string::npos)
            continue;
        found = true;
        EXPECT_LT(text.size(), long_text.size());
    }
    EXPECT_TRUE(found);
}

TEST(Flight, RingKeepsTheMostRecentEntriesWhenFull)
{
    ensureInstalled();
    flight::resetForTest();
    // Far more entries than one ring holds: the oldest are overwritten
    // and the newest survive -- the property a post-mortem relies on.
    for (int i = 0; i < 2000; ++i)
        flight::recordSpan("unit.flood", 1);
    flight::note("unit.last_entry");
    ASSERT_TRUE(flight::dump("wrap_test"));
    const json::Value dump = parseDump();
    EXPECT_TRUE(dumpContains(dump, "unit.last_entry"));
}

TEST(Flight, FatalSignalInChildLeavesParseableDumpWithLastSpan)
{
    ensureInstalled();
    flight::resetForTest();
    const pid_t pid = fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
        // Child: complete one span, then die the way a real crash does.
        // No gtest machinery here -- the handler must do all the work.
        {
            const trace::TraceSpan span("unit.crash_span", "test");
        }
        std::abort();
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGABRT);

    const json::Value dump = parseDump();
    EXPECT_EQ(dump.field("schema").asString("schema"),
              "youtiao-flight-1");
    EXPECT_EQ(dump.field("reason").asString("reason"), "signal:SIGABRT");
    EXPECT_TRUE(dumpContains(dump, "unit.crash_span"));
}

TEST(Flight, SetEnabledForTestPausesRecording)
{
    ensureInstalled();
    flight::resetForTest();
    flight::setEnabledForTest(false);
    EXPECT_FALSE(flight::enabled());
    flight::note("must not appear");
    flight::setEnabledForTest(true);
    flight::note("must appear");
    ASSERT_TRUE(flight::dump("pause_test"));
    const json::Value dump = parseDump();
    EXPECT_FALSE(dumpContains(dump, "must not appear"));
    EXPECT_TRUE(dumpContains(dump, "must appear"));
}

} // namespace
} // namespace youtiao
