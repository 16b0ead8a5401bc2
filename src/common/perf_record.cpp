#include "common/perf_record.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/json.hpp"

namespace youtiao {

namespace {

HistogramRecord
parseHistogram(const std::string &name, const json::Value &entry)
{
    HistogramRecord h;
    const std::string what = "perf record: histogram '" + name + "'";
    h.count = entry.field("count").asInteger<std::uint64_t>(what +
                                                            " count");
    h.min = entry.field("min").asNumber(what + " min");
    h.max = entry.field("max").asNumber(what + " max");
    h.p50 = entry.field("p50").asNumber(what + " p50");
    h.p90 = entry.field("p90").asNumber(what + " p90");
    h.p99 = entry.field("p99").asNumber(what + " p99");
    for (const auto &[key, value] :
         entry.field("buckets").asObject(what + " buckets")) {
        char *end = nullptr;
        const long index = std::strtol(key.c_str(), &end, 10);
        requireConfig(end != nullptr && *end == '\0' && index >= 0 &&
                          index < static_cast<long>(
                                      metrics::kHistogramBuckets),
                      what + " has bad bucket key '" + key + "'");
        h.buckets[static_cast<int>(index)] =
            value.asInteger<std::uint64_t>(what + " bucket " + key);
    }
    return h;
}

} // namespace

PerfRecord
parsePerfRecord(const std::string &text)
{
    const json::Value root = json::parse(text, "perf record");
    PerfRecord record;
    record.schema = root.field("schema").asString("perf record: schema");
    requireConfig(record.schema == "youtiao-perf-4" ||
                      record.schema == "youtiao-perf-5",
                  "perf record: unknown schema '" + record.schema + "'");
    record.benchmark =
        root.field("benchmark").asString("perf record: benchmark");
    for (const auto &[name, entry] :
         root.field("phases").asObject("perf record: phases")) {
        metrics::PhaseStats stats;
        stats.seconds = entry.field("seconds").asNumber(
            "perf record: phase '" + name + "' seconds");
        requireConfig(stats.seconds >= 0.0,
                      "perf record: phase '" + name +
                          "' has negative time");
        stats.calls = entry.field("calls").asInteger<std::uint64_t>(
            "perf record: phase '" + name + "' calls");
        record.phases[name] = stats;
    }
    for (const auto &[name, entry] :
         root.field("counters").asObject("perf record: counters"))
        record.counters[name] = entry.asInteger<std::uint64_t>(
            "perf record: counter '" + name + "'");
    if (const json::Value *histograms = root.fieldIf("histograms")) {
        for (const auto &[name, entry] :
             histograms->asObject("perf record: histograms"))
            record.histograms[name] = parseHistogram(name, entry);
    }
    if (const json::Value *config = root.fieldIf("config")) {
        if (const json::Value *rss = config->fieldIf("peak_rss_bytes")) {
            if (!rss->isNull())
                record.peakRssBytes = rss->asInteger<std::uint64_t>(
                    "perf record: config peak_rss_bytes");
        }
    }
    if (const json::Value *series = root.fieldIf("resource_samples")) {
        for (const json::Value &entry :
             series->asArray("perf record: resource_samples")) {
            ResourceSample sample;
            sample.tsSeconds = entry.field("ts_s").asNumber(
                "perf record: resource sample ts_s");
            sample.rssBytes =
                entry.field("rss_bytes").asInteger<std::uint64_t>(
                    "perf record: resource rss_bytes");
            sample.cpuSeconds = entry.field("cpu_seconds")
                                    .asNumber("perf record: resource "
                                              "sample cpu_seconds");
            sample.astarArenaBytes =
                entry.field("astar_arena_bytes")
                    .asInteger<std::uint64_t>(
                        "perf record: resource astar_arena_bytes");
            sample.poolQueueDepth =
                entry.field("pool_queue_depth")
                    .asInteger<std::uint64_t>(
                        "perf record: resource pool_queue_depth");
            record.resourceSamples.push_back(sample);
        }
    }
    if (const json::Value *stalls = root.fieldIf("watchdog_stalls"))
        record.watchdogStalls = stalls->asInteger<std::uint64_t>(
            "perf record: watchdog_stalls");
    return record;
}

PerfRecord
loadPerfRecord(const std::string &path)
{
    std::ifstream in(path);
    requireConfig(static_cast<bool>(in),
                  "cannot read perf record '" + path + "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    try {
        return parsePerfRecord(buffer.str());
    } catch (const ConfigError &e) {
        throw ConfigError(path + ": " + e.what());
    }
}

PerfComparison
comparePerfRecords(const PerfRecord &baseline, const PerfRecord &current,
                   double max_regression, double min_seconds)
{
    requireConfig(max_regression >= 0.0,
                  "max regression must be non-negative");
    requireConfig(min_seconds >= 0.0, "time floor must be non-negative");
    PerfComparison out;
    for (const auto &[name, base] : baseline.phases) {
        if (base.seconds < min_seconds)
            continue; // too fast to time reliably
        const auto it = current.phases.find(name);
        if (it == current.phases.end()) {
            out.missingPhases.push_back(name);
            continue;
        }
        ++out.comparedPhases;
        const double ratio = it->second.seconds / base.seconds;
        if (ratio > 1.0 + max_regression)
            out.regressions.push_back(
                PhaseDelta{name, base.seconds, it->second.seconds, ratio});
        else if (ratio < 1.0 - max_regression)
            out.improvements.push_back(
                PhaseDelta{name, base.seconds, it->second.seconds, ratio});
    }
    std::sort(out.regressions.begin(), out.regressions.end(),
              [](const PhaseDelta &a, const PhaseDelta &b) {
                  return a.ratio > b.ratio;
              });
    std::sort(out.improvements.begin(), out.improvements.end(),
              [](const PhaseDelta &a, const PhaseDelta &b) {
                  return a.ratio < b.ratio;
              });
    return out;
}

} // namespace youtiao
