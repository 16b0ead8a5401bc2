/**
 * @file
 * Run-record suite: provenance hashing, rendering and parsing the one
 * youtiao-perf-5 record, ledger appends, determinism of records across
 * identical seeded runs, and the longitudinal trend analysis perf_trend
 * is built on (including the synthetic-regression flagging the CI gate
 * relies on and the exclusion of cancelled or failed runs).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "chip/topology_builder.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/prng.hpp"
#include "common/runledger.hpp"
#include "core/youtiao.hpp"
#include "noise/crosstalk_data.hpp"
#include "routing/chip_router.hpp"
#include "test_support.hpp"

namespace youtiao {
namespace {

using runledger::PerfRecord;

TEST(RunLedger, Fnv1aHexMatchesReferenceVectors)
{
    // Standard FNV-1a 64-bit test vectors; the hash is the provenance
    // fingerprint of every record, so it must never drift.
    EXPECT_EQ(runledger::fnv1aHex(""), "cbf29ce484222325");
    EXPECT_EQ(runledger::fnv1aHex("a"), "af63dc4c8601ec8c");
    EXPECT_EQ(runledger::fnv1aHex("hello"), "a430d84680aabd0b");
    EXPECT_NE(runledger::fnv1aHex("hello"), runledger::fnv1aHex("hellp"));
}

TEST(RunLedger, ConfiguredTracksEnvironment)
{
    ::unsetenv("YOUTIAO_RUN_LEDGER");
    EXPECT_FALSE(runledger::ledgerConfigured());
    ::setenv("YOUTIAO_RUN_LEDGER", "/tmp/x.jsonl", 1);
    EXPECT_TRUE(runledger::ledgerConfigured());
    ::setenv("YOUTIAO_RUN_LEDGER", "", 1);
    EXPECT_FALSE(runledger::ledgerConfigured());
    ::unsetenv("YOUTIAO_RUN_LEDGER");
}

TEST(RunLedger, ManifestRoundTripsThroughParser)
{
    // Every run field the recorder renders must parse back exactly, so
    // perf_check and perf_trend can read every record a run writes. The
    // registry side of the record is PerfRecord.ParsesLiveJsonReport's.
    ::unsetenv("YOUTIAO_RUN_LEDGER");
    metrics::Registry::global().reset();
    {
        const metrics::ScopedTimer timer("unit.phase");
        metrics::count("unit.counter", 7);
    }
    const char *argv[] = {"binary", "--rows", "4"};
    runledger::Recorder recorder("unit_tool", 3, argv);
    recorder.hashBytes("chip", "chip bytes");
    recorder.setHash("seed", "2025");
    recorder.addNote("degradation: none");
    recorder.addNote("quote \" backslash \\ tab \t newline \n");
    recorder.setExitStatus(3);

    const std::string line = recorder.finish();
    // One compact line, rendered once.
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.find('\n'), line.size() - 1);
    EXPECT_EQ(recorder.finish(), line);

    const PerfRecord r = runledger::parsePerfRecord(line);
    EXPECT_EQ(r.schema, "youtiao-perf-5");
    EXPECT_EQ(r.benchmark, "unit_tool");
    EXPECT_EQ(r.argv, (std::vector<std::string>{"--rows", "4"}));
    EXPECT_GT(r.startUnixMs, 0u);
    EXPECT_GE(r.wallSeconds, 0.0);
    EXPECT_GE(r.cpuSeconds, 0.0);
    EXPECT_EQ(r.exitStatus, 3);
    EXPECT_EQ(r.threads, configuredThreadCount());
    const char *threads_env = std::getenv("YOUTIAO_THREADS");
    EXPECT_EQ(r.threadsEnv.has_value(), threads_env != nullptr);
    if (threads_env != nullptr) {
        EXPECT_EQ(*r.threadsEnv, threads_env);
    }
    EXPECT_FALSE(r.buildType.empty());
    EXPECT_FALSE(r.gitSha.empty());
    ASSERT_TRUE(r.peakRssBytes.has_value());
    EXPECT_GT(*r.peakRssBytes, 0u);
    EXPECT_EQ(r.hashes,
              (std::map<std::string, std::string>{
                  {"chip", runledger::fnv1aHex("chip bytes")},
                  {"seed", "2025"}}));
    EXPECT_EQ(r.notes, (std::vector<std::string>{
                           "degradation: none",
                           "quote \" backslash \\ tab \t newline \n"}));
    ASSERT_EQ(r.phases.count("unit.phase"), 1u);
    EXPECT_EQ(r.phases.at("unit.phase").calls, 1u);
    EXPECT_EQ(r.counters,
              (std::map<std::string, std::uint64_t>{{"unit.counter", 7}}));
    metrics::Registry::global().reset();
}

TEST(RunLedger, FinishAppendsOneLinePerRun)
{
    const TestDir dir;
    const std::string path = dir.file("ledger.jsonl");
    ::setenv("YOUTIAO_RUN_LEDGER", path.c_str(), 1);
    std::string first;
    {
        runledger::Recorder recorder("append_tool");
        first = recorder.finish();
        (void)recorder.finish(); // idempotent: still one line
    }
    {
        runledger::Recorder recorder("append_tool");
        // destructor finishes
    }
    ::unsetenv("YOUTIAO_RUN_LEDGER");

    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    // The ledger holds exactly the rendered bytes.
    EXPECT_EQ(buf.str().substr(0, first.size()), first);
    const std::vector<PerfRecord> records =
        runledger::parseLedger(buf.str());
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].benchmark, "append_tool");
    EXPECT_EQ(records[1].benchmark, "append_tool");
}

TEST(RunLedger, ParserRejectsGarbageNamingTheLine)
{
    EXPECT_THROW(runledger::parsePerfRecord("{\"schema\":\"nope\"}"),
                 ConfigError);
    try {
        runledger::parseLedger(
            "{\"schema\":\"youtiao-perf-5\",\"benchmark\":\"t\","
            "\"argv\":[],\"exit_status\":0,\"phases\":{},"
            "\"counters\":{}}\n"
            "not json\n");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"),
                  std::string::npos);
    }
}

TEST(RunLedger, ParserRejectsFractionalAndOutOfRangeIntegers)
{
    const std::string head =
        "{\"schema\":\"youtiao-perf-5\",\"benchmark\":\"t\","
        "\"phases\":{},";
    // Older records carry config.simd_level; the parser ignores it.
    const PerfRecord legacy = runledger::parsePerfRecord(
        head + "\"config\":{\"simd_level\":\"avx2\"},"
               "\"exit_status\":-2,"
               "\"counters\":{\"c\":9007199254740992}}");
    EXPECT_EQ(legacy.exitStatus, -2);
    EXPECT_EQ(legacy.counters.at("c"), 9007199254740992u);
    // A plain cast would truncate these or be undefined.
    for (const char *bad :
         {"\"exit_status\":1e10,\"counters\":{}",
          "\"exit_status\":-3e9,\"counters\":{}",
          "\"exit_status\":2.5,\"counters\":{}",
          "\"config\":{\"threads\":-1},\"counters\":{}",
          "\"config\":{\"threads\":1.5},\"counters\":{}",
          "\"config\":{\"peak_rss_bytes\":1e20},\"counters\":{}",
          "\"start_unix_ms\":-1,\"counters\":{}",
          "\"counters\":{\"c\":2.5}", "\"counters\":{\"c\":1e20}"}) {
        EXPECT_THROW(runledger::parsePerfRecord(head + bad + "}"),
                     ConfigError)
            << bad;
    }
    EXPECT_THROW(runledger::parsePerfRecord(
                     "{\"schema\":\"youtiao-perf-5\",\"benchmark\":\"t\","
                     "\"phases\":{\"p\":{\"seconds\":1,\"calls\":1e20}},"
                     "\"counters\":{}}"),
                 ConfigError);
}

/** Record of one fit-free seeded design + route run, from a fresh
 *  registry. */
std::string
seededRunRecord()
{
    metrics::Registry::global().reset();
    const ChipTopology chip = makeTopology(TopologyFamily::SquareGrid,
                                           4, 4);
    YoutiaoConfig config;
    config.seed = 2025;
    Prng prng(config.seed);
    const ChipCharacterization data = characterizeChip(chip, prng);
    const YoutiaoDesign design =
        YoutiaoDesigner(config).designFromMeasurements(chip, data);
    const ChipRoutingResult routed = routeChip(
        chip, buildWiringNets(chip, design.xyPlan, design.zPlan,
                              design.readoutPlan));
    const char *argv[] = {"binary", "--seed", "2025"};
    runledger::Recorder recorder("determinism_tool", 3, argv);
    recorder.setHash("seed", std::to_string(config.seed));
    recorder.hashBytes("chip", chip.name());
    recorder.addNote("cost=" + std::to_string(design.costUsd));
    recorder.addNote("failed=" +
                     std::to_string(routed.failedConnections));
    const std::string record = recorder.finish();
    metrics::Registry::global().reset();
    return record;
}

TEST(RunLedger, IdenticalSeededRunsAgreeModuloTimings)
{
    // Two identical seeded runs must produce the same record once the
    // volatile fields are set aside: start_unix_ms, the *_seconds
    // fields, RSS and timing histograms. Everything
    // else -- argv, config, hashes, notes, counters, phase names and
    // call counts, outcome histograms -- must agree exactly.
    const PerfRecord a = runledger::parsePerfRecord(seededRunRecord());
    const PerfRecord b = runledger::parsePerfRecord(seededRunRecord());
    EXPECT_EQ(a.schema, b.schema);
    EXPECT_EQ(a.benchmark, b.benchmark);
    EXPECT_EQ(a.argv, b.argv);
    EXPECT_EQ(a.exitStatus, b.exitStatus);
    EXPECT_EQ(a.threads, b.threads);
    EXPECT_EQ(a.threadsEnv, b.threadsEnv);
    EXPECT_EQ(a.buildType, b.buildType);
    EXPECT_EQ(a.gitSha, b.gitSha);
    EXPECT_EQ(a.hashes, b.hashes);
    EXPECT_EQ(a.notes, b.notes);
    EXPECT_EQ(a.counters, b.counters);
    ASSERT_EQ(a.phases.size(), b.phases.size());
    for (const auto &[name, stats] : a.phases) {
        ASSERT_EQ(b.phases.count(name), 1u) << name;
        EXPECT_EQ(stats.calls, b.phases.at(name).calls) << name;
    }
    ASSERT_EQ(a.histograms.size(), b.histograms.size());
    std::size_t outcome_histograms = 0;
    for (const auto &[name, h] : a.histograms) {
        ASSERT_EQ(b.histograms.count(name), 1u) << name;
        if (name.ends_with("_seconds"))
            continue; // a timing; every other histogram is an outcome
        ++outcome_histograms;
        const runledger::HistogramRecord &o = b.histograms.at(name);
        EXPECT_EQ(h.count, o.count) << name;
        EXPECT_EQ(h.min, o.min) << name;
        EXPECT_EQ(h.max, o.max) << name;
        EXPECT_EQ(h.p50, o.p50) << name;
        EXPECT_EQ(h.p90, o.p90) << name;
        EXPECT_EQ(h.p99, o.p99) << name;
        EXPECT_EQ(h.buckets, o.buckets) << name;
    }
    // The route makes the comparison bite: astar.cells_expanded.
    EXPECT_GE(outcome_histograms, 1u);
}

PerfRecord
recordWithPhase(const std::string &benchmark, const std::string &phase,
                double seconds, int exit_status = 0)
{
    PerfRecord record;
    record.benchmark = benchmark;
    record.exitStatus = exit_status;
    record.phases[phase] = metrics::PhaseStats{seconds, 1};
    return record;
}

TEST(RunLedger, TrendFlagsThirtyPercentRegression)
{
    // The CI acceptance drill: a 1.0 / 1.0 / 1.3 series trips the
    // default 25% threshold; 1.0 / 1.0 / 1.1 does not.
    const std::vector<PerfRecord> regressed = {
        recordWithPhase("cli", "design.route", 1.0),
        recordWithPhase("cli", "design.route", 1.0),
        recordWithPhase("cli", "design.route", 1.3),
    };
    std::vector<runledger::BenchmarkTrend> trends =
        runledger::ledgerTrends(regressed);
    ASSERT_EQ(trends.size(), 1u);
    EXPECT_EQ(trends[0].benchmark, "cli");
    EXPECT_EQ(trends[0].runs, 3u);
    ASSERT_EQ(trends[0].phases.size(), 1u);
    const runledger::PhaseTrend &trend = trends[0].phases[0];
    EXPECT_EQ(trend.phase, "design.route");
    EXPECT_DOUBLE_EQ(trend.medianPriorSeconds, 1.0);
    EXPECT_DOUBLE_EQ(trend.latestSeconds, 1.3);
    EXPECT_NEAR(trend.ratio, 1.3, 1e-12);
    EXPECT_TRUE(trend.regressed);
    EXPECT_TRUE(trends[0].anyRegression());
    EXPECT_NE(runledger::trendReport(trends).find("REGRESSED"),
              std::string::npos);

    const std::vector<PerfRecord> steady = {
        recordWithPhase("cli", "design.route", 1.0),
        recordWithPhase("cli", "design.route", 1.0),
        recordWithPhase("cli", "design.route", 1.1),
    };
    trends = runledger::ledgerTrends(steady);
    ASSERT_EQ(trends.size(), 1u);
    EXPECT_FALSE(trends[0].anyRegression());
}

TEST(RunLedger, TrendNeedsPriorsAndIgnoresNoiseFloor)
{
    // Two observations: no baseline yet, never flagged.
    const std::vector<PerfRecord> two = {
        recordWithPhase("cli", "p", 1.0),
        recordWithPhase("cli", "p", 10.0),
    };
    std::vector<runledger::BenchmarkTrend> trends =
        runledger::ledgerTrends(two);
    ASSERT_EQ(trends.size(), 1u);
    EXPECT_FALSE(trends[0].anyRegression());

    // Microsecond phases regress by 10x without meaning anything; the
    // minSeconds floor keeps them quiet.
    const std::vector<PerfRecord> tiny = {
        recordWithPhase("cli", "p", 1e-6),
        recordWithPhase("cli", "p", 1e-6),
        recordWithPhase("cli", "p", 1e-5),
    };
    trends = runledger::ledgerTrends(tiny);
    ASSERT_EQ(trends.size(), 1u);
    EXPECT_FALSE(trends[0].anyRegression());

    // ...unless the caller lowers the floor deliberately.
    runledger::TrendOptions options;
    options.minSeconds = 1e-9;
    trends = runledger::ledgerTrends(tiny, options);
    ASSERT_EQ(trends.size(), 1u);
    EXPECT_TRUE(trends[0].anyRegression());
}

TEST(RunLedger, TrendsSeparateTools)
{
    const std::vector<PerfRecord> records = {
        recordWithPhase("a", "p", 1.0), recordWithPhase("b", "p", 1.0),
        recordWithPhase("a", "p", 1.0), recordWithPhase("b", "p", 1.0),
        recordWithPhase("a", "p", 2.0), recordWithPhase("b", "p", 1.0),
    };
    const std::vector<runledger::BenchmarkTrend> trends =
        runledger::ledgerTrends(records);
    ASSERT_EQ(trends.size(), 2u);
    EXPECT_EQ(trends[0].benchmark, "a");
    EXPECT_TRUE(trends[0].anyRegression());
    EXPECT_EQ(trends[1].benchmark, "b");
    EXPECT_FALSE(trends[1].anyRegression());
}

PerfRecord
cliRecordOnChip(const std::string &chip_hash, double seconds)
{
    PerfRecord record =
        recordWithPhase("youtiao_cli", "noise.forest_fit", seconds);
    record.hashes = {{"chip", chip_hash}, {"seed", "7"}};
    return record;
}

TEST(RunLedger, TrendsSeparateInputHashes)
{
    // Every CLI record names the benchmark "youtiao_cli": three 4x4
    // runs then one 10x10 run are two series, not a 65x regression.
    std::vector<PerfRecord> records = {
        cliRecordOnChip("4x4", 0.1), cliRecordOnChip("4x4", 0.1),
        cliRecordOnChip("4x4", 0.1), cliRecordOnChip("10x10", 6.5),
    };
    std::vector<runledger::BenchmarkTrend> trends =
        runledger::ledgerTrends(records);
    ASSERT_EQ(trends.size(), 2u);
    EXPECT_EQ(trends[0].benchmark, "youtiao_cli");
    EXPECT_EQ(trends[0].hashes.at("chip"), "10x10");
    EXPECT_EQ(trends[0].runs, 1u);
    EXPECT_EQ(trends[1].benchmark, "youtiao_cli");
    EXPECT_EQ(trends[1].hashes.at("chip"), "4x4");
    EXPECT_EQ(trends[1].runs, 3u);
    EXPECT_FALSE(trends[0].anyRegression());
    EXPECT_FALSE(trends[1].anyRegression());

    // Each series is headed by its benchmark and a short input hash;
    // a record without hashes keeps the plain heading.
    records.push_back(recordWithPhase("table2_wiring", "p", 1.0));
    trends = runledger::ledgerTrends(records);
    ASSERT_EQ(trends.size(), 3u);
    const std::string report = runledger::trendReport(trends);
    const std::string heading = "-- youtiao_cli inputs ";
    const std::size_t first = report.find(heading);
    ASSERT_NE(first, std::string::npos);
    const std::size_t second = report.find(heading, first + 1);
    ASSERT_NE(second, std::string::npos);
    EXPECT_NE(report.substr(first + heading.size(), 8),
              report.substr(second + heading.size(), 8));
    EXPECT_NE(report.find("-- table2_wiring (1 runs"), std::string::npos);

    // Inside one series a slower run is still flagged.
    records.push_back(cliRecordOnChip("10x10", 6.5));
    records.push_back(cliRecordOnChip("10x10", 9.0));
    trends = runledger::ledgerTrends(records);
    ASSERT_EQ(trends.size(), 3u);
    EXPECT_EQ(trends[0].benchmark, "table2_wiring");
    EXPECT_FALSE(trends[0].anyRegression());
    EXPECT_EQ(trends[1].hashes.at("chip"), "10x10");
    EXPECT_TRUE(trends[1].anyRegression());
    EXPECT_EQ(trends[2].hashes.at("chip"), "4x4");
    EXPECT_FALSE(trends[2].anyRegression());
}

TEST(RunLedger, TrendSkipsCancelledAndFailedRuns)
{
    // Runs cut short by --deadline (exit 3) record truncated phase
    // times. As priors they would make the next clean run look ~50x
    // slower; only runs that exited 0 may enter the series.
    std::vector<PerfRecord> records = {
        recordWithPhase("cli", "routing.route_chip", 1.0),
        recordWithPhase("cli", "routing.route_chip", 1.0),
        recordWithPhase("cli", "routing.route_chip", 0.02, 3),
        recordWithPhase("cli", "routing.route_chip", 0.02, 3),
        recordWithPhase("cli", "routing.route_chip", 0.02, 3),
        recordWithPhase("cli", "routing.route_chip", 1.0),
    };
    std::vector<runledger::BenchmarkTrend> trends =
        runledger::ledgerTrends(records);
    ASSERT_EQ(trends.size(), 1u);
    EXPECT_EQ(trends[0].runs, 3u);
    EXPECT_EQ(trends[0].excludedRuns, 3u);
    EXPECT_FALSE(trends[0].anyRegression());
    ASSERT_EQ(trends[0].phases.size(), 1u);
    EXPECT_EQ(trends[0].phases[0].observations, 3u);
    EXPECT_DOUBLE_EQ(trends[0].phases[0].medianPriorSeconds, 1.0);
    EXPECT_DOUBLE_EQ(trends[0].phases[0].latestSeconds, 1.0);
    EXPECT_NE(runledger::trendReport(trends).find(
                  "3 with non-zero exit excluded"),
              std::string::npos);

    // A failed last run is never the latest value, however slow.
    records.push_back(
        recordWithPhase("cli", "routing.route_chip", 5.0, 1));
    trends = runledger::ledgerTrends(records);
    ASSERT_EQ(trends.size(), 1u);
    EXPECT_EQ(trends[0].excludedRuns, 4u);
    EXPECT_DOUBLE_EQ(trends[0].phases[0].latestSeconds, 1.0);
    EXPECT_FALSE(trends[0].anyRegression());
}

} // namespace
} // namespace youtiao
