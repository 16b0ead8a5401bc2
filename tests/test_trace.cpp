/**
 * @file
 * Span-tracer suite: the exported Chrome trace-event JSON parses with
 * the shared JSON reader, spans are well-nested per thread track,
 * multi-threaded pipeline runs land events on multiple tracks, and a
 * disabled tracer records nothing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/parallel.hpp"
#include "common/trace.hpp"

namespace youtiao {
namespace {

json::Value
exportTrace()
{
    trace::Tracer::global().disable();
    return json::parse(trace::Tracer::global().toJson(), "trace");
}

TEST(Trace, DisabledTracerRecordsNothing)
{
    trace::Tracer::global().enable();
    trace::Tracer::global().disable();
    {
        const trace::TraceSpan span("trace.ignored");
    }
    trace::instant("trace.ignored_instant");
    trace::counter("trace.ignored_counter", 1.0);
    const json::Value root = exportTrace();
    EXPECT_EQ(root.field("traceEvents").asArray("events").size(), 0u);
}

TEST(Trace, ExportedJsonParsesWithSharedReader)
{
    trace::Tracer::global().enable();
    {
        const trace::TraceSpan span("trace.unit", "test");
        trace::instant("trace.marker", "test");
        trace::counter("trace.gauge", 42.5, "test");
    }
    const json::Value root = exportTrace();
    EXPECT_EQ(root.field("schema").asString("schema"),
              "youtiao-trace-1");
    EXPECT_EQ(root.field("displayTimeUnit").asString("unit"), "ms");
    EXPECT_EQ(root.field("droppedEvents").asNumber("dropped"), 0.0);
    const auto &events = root.field("traceEvents").asArray("events");
    ASSERT_EQ(events.size(), 3u);
    bool saw_span = false, saw_instant = false, saw_counter = false;
    for (const json::Value &e : events) {
        const std::string ph = e.field("ph").asString("ph");
        EXPECT_EQ(e.field("pid").asNumber("pid"), 1.0);
        EXPECT_GE(e.field("ts").asNumber("ts"), 0.0);
        if (ph == "X") {
            saw_span = true;
            EXPECT_EQ(e.field("name").asString("name"), "trace.unit");
            EXPECT_EQ(e.field("cat").asString("cat"), "test");
            EXPECT_GE(e.field("dur").asNumber("dur"), 0.0);
        } else if (ph == "i") {
            saw_instant = true;
            EXPECT_EQ(e.field("s").asString("s"), "t");
        } else if (ph == "C") {
            saw_counter = true;
            EXPECT_EQ(e.field("args").field("value").asNumber("value"),
                      42.5);
        }
    }
    EXPECT_TRUE(saw_span);
    EXPECT_TRUE(saw_instant);
    EXPECT_TRUE(saw_counter);
}

TEST(Trace, SpansAreWellNestedPerThread)
{
    trace::Tracer::global().enable();
    ThreadPool pool(4);
    parallelFor(
        0, 64,
        [&](std::size_t) {
            const trace::TraceSpan outer("trace.outer");
            const trace::TraceSpan inner("trace.inner");
        },
        1, &pool);
    const json::Value root = exportTrace();
    struct Span
    {
        double ts, end;
        std::string name;
    };
    std::map<double, std::vector<Span>> by_tid;
    for (const json::Value &e :
         root.field("traceEvents").asArray("events")) {
        if (e.field("ph").asString("ph") != "X")
            continue;
        const double ts = e.field("ts").asNumber("ts");
        by_tid[e.field("tid").asNumber("tid")].push_back(
            Span{ts, ts + e.field("dur").asNumber("dur"),
                 e.field("name").asString("name")});
    }
    ASSERT_FALSE(by_tid.empty());
    for (auto &[tid, spans] : by_tid) {
        std::sort(spans.begin(), spans.end(),
                  [](const Span &a, const Span &b) {
                      return a.ts != b.ts ? a.ts < b.ts : a.end > b.end;
                  });
        // On one track, spans either nest or are disjoint -- never
        // partially overlap.
        std::vector<Span> stack;
        for (const Span &s : spans) {
            while (!stack.empty() && stack.back().end <= s.ts)
                stack.pop_back();
            if (!stack.empty()) {
                EXPECT_LE(s.end, stack.back().end)
                    << "span " << s.name << " on tid " << tid
                    << " partially overlaps " << stack.back().name;
            }
            stack.push_back(s);
        }
    }
}

TEST(Trace, ParallelRunLandsEventsOnMultipleTracks)
{
    trace::Tracer::global().enable();
    ThreadPool pool(4);
    // Tasks long enough that the submitting thread cannot claim every
    // chunk alone before a worker wakes and claims some.
    parallelFor(
        0, 64,
        [&](std::size_t) {
            const trace::TraceSpan span("trace.task");
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        },
        1, &pool);
    const json::Value root = exportTrace();
    std::set<double> tids;
    for (const json::Value &e :
         root.field("traceEvents").asArray("events"))
        tids.insert(e.field("tid").asNumber("tid"));
    EXPECT_GE(tids.size(), 2u);
}

TEST(Trace, ReenableDropsPreviousEvents)
{
    trace::Tracer::global().enable();
    {
        const trace::TraceSpan span("trace.first_epoch");
    }
    trace::Tracer::global().enable();
    {
        const trace::TraceSpan span("trace.second_epoch");
    }
    const json::Value root = exportTrace();
    const auto &events = root.field("traceEvents").asArray("events");
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].field("name").asString("name"),
              "trace.second_epoch");
}

TEST(Trace, WriteJsonFailsOnUnwritablePath)
{
    trace::Tracer::global().disable();
    EXPECT_FALSE(trace::Tracer::global().writeJson(
        "/nonexistent-dir/trace.json"));
}

} // namespace
} // namespace youtiao
