/**
 * @file
 * Run-ledger suite: provenance hashing, manifest emission and parsing,
 * determinism of manifests across identical seeded runs, and the
 * longitudinal trend analysis perf_trend is built on (including the
 * synthetic-regression flagging the CI gate relies on).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "chip/topology_builder.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/prng.hpp"
#include "common/runledger.hpp"
#include "core/youtiao.hpp"
#include "noise/crosstalk_data.hpp"

namespace youtiao {
namespace {

TEST(RunLedger, Fnv1aHexMatchesReferenceVectors)
{
    // Standard FNV-1a 64-bit test vectors; the hash is the provenance
    // fingerprint of every manifest, so it must never drift.
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
    recorder.setExitStatus(3);

    const runledger::LedgerEntry entry =
        runledger::parseLedgerLine(recorder.manifestJson());
    EXPECT_EQ(entry.tool, "unit_tool");
    ASSERT_EQ(entry.argv.size(), 2u); // argv[0] is dropped
    EXPECT_EQ(entry.argv[0], "--rows");
    EXPECT_EQ(entry.argv[1], "4");
    EXPECT_EQ(entry.exitStatus, 3);
    EXPECT_FALSE(entry.gitSha.empty());
    EXPECT_GE(entry.threads, 1u);
    EXPECT_GE(entry.wallSeconds, 0.0);
    ASSERT_EQ(entry.hashes.count("chip"), 1u);
    EXPECT_EQ(entry.hashes.at("chip"),
              runledger::fnv1aHex("chip bytes"));
    EXPECT_EQ(entry.hashes.at("seed"), "2025");
    ASSERT_EQ(entry.notes.size(), 1u);
    EXPECT_EQ(entry.notes[0], "degradation: none");
    ASSERT_EQ(entry.phases.count("unit.phase"), 1u);
    EXPECT_EQ(entry.phases.at("unit.phase").calls, 1u);
    ASSERT_EQ(entry.counters.count("unit.counter"), 1u);
    EXPECT_EQ(entry.counters.at("unit.counter"), 7u);
    metrics::Registry::global().reset();
}

TEST(RunLedger, FinishAppendsOneLinePerRun)
{
    const std::string path =
        ::testing::TempDir() + "unit_ledger.jsonl";
    std::remove(path.c_str());
    ::setenv("YOUTIAO_RUN_LEDGER", path.c_str(), 1);
    {
        runledger::Recorder recorder("append_tool");
        recorder.finish();
        recorder.finish(); // idempotent: still one line
    }
    {
        runledger::Recorder recorder("append_tool");
        // destructor finishes
    }
    ::unsetenv("YOUTIAO_RUN_LEDGER");

    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::vector<runledger::LedgerEntry> entries =
        runledger::parseLedger(buf.str());
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].tool, "append_tool");
    EXPECT_EQ(entries[1].tool, "append_tool");
    std::remove(path.c_str());
}

TEST(RunLedger, ParserRejectsGarbageNamingTheLine)
{
    EXPECT_THROW(runledger::parseLedgerLine("{\"schema\":\"nope\"}"),
                 ConfigError);
    try {
        runledger::parseLedger(
            "{\"schema\":\"youtiao-run-1\",\"tool\":\"t\",\"argv\":[],"
            "\"exit_status\":0,\"phases\":{},\"counters\":{}}\n"
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
        "{\"schema\":\"youtiao-run-1\",\"tool\":\"t\",";
    // Older manifests carry simd_level; the parser ignores it.
    const runledger::LedgerEntry legacy = runledger::parseLedgerLine(
        head + "\"simd_level\":\"avx2\",\"exit_status\":-2,"
               "\"counters\":{\"c\":9007199254740992}}");
    EXPECT_EQ(legacy.exitStatus, -2);
    EXPECT_EQ(legacy.counters.at("c"), 9007199254740992u);
    // A plain cast would truncate these or be undefined.
    for (const char *bad :
         {"\"exit_status\":1e10", "\"exit_status\":-3e9",
          "\"exit_status\":2.5", "\"threads\":-1", "\"threads\":1.5",
          "\"peak_rss_bytes\":1e20",
          "\"counters\":{\"c\":2.5}", "\"counters\":{\"c\":1e20}",
          "\"phases\":{\"p\":{\"seconds\":1,\"calls\":1e20}}"}) {
        EXPECT_THROW(runledger::parseLedgerLine(head + bad + "}"),
                     ConfigError)
            << bad;
    }
}

/** Manifest of one fit-free seeded design run, from a fresh registry. */
std::string
seededRunManifest()
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
    runledger::Recorder recorder("determinism_tool");
    recorder.setHash("seed", std::to_string(config.seed));
    recorder.hashBytes("chip", chip.name());
    recorder.addNote("cost=" + std::to_string(design.costUsd));
    const std::string manifest = recorder.manifestJson();
    metrics::Registry::global().reset();
    return manifest;
}

TEST(RunLedger, IdenticalSeededRunsAgreeModuloTimings)
{
    // Two identical seeded runs must produce the same manifest once the
    // volatile fields (timestamps, wall/CPU seconds, RSS, phase
    // seconds) are set aside: same argv, hashes, notes, counters, and
    // phase call counts.
    const runledger::LedgerEntry a =
        runledger::parseLedgerLine(seededRunManifest());
    const runledger::LedgerEntry b =
        runledger::parseLedgerLine(seededRunManifest());
    EXPECT_EQ(a.tool, b.tool);
    EXPECT_EQ(a.argv, b.argv);
    EXPECT_EQ(a.gitSha, b.gitSha);
    EXPECT_EQ(a.threads, b.threads);
    EXPECT_EQ(a.exitStatus, b.exitStatus);
    EXPECT_EQ(a.hashes, b.hashes);
    EXPECT_EQ(a.notes, b.notes);
    EXPECT_EQ(a.counters, b.counters);
    ASSERT_EQ(a.phases.size(), b.phases.size());
    for (const auto &[name, stats] : a.phases) {
        ASSERT_EQ(b.phases.count(name), 1u) << name;
        EXPECT_EQ(stats.calls, b.phases.at(name).calls) << name;
    }
}

runledger::LedgerEntry
entryWithPhase(const std::string &tool, const std::string &phase,
               double seconds)
{
    runledger::LedgerEntry entry;
    entry.tool = tool;
    entry.phases[phase] = metrics::PhaseStats{seconds, 1};
    return entry;
}

TEST(RunLedger, TrendFlagsThirtyPercentRegression)
{
    // The CI acceptance drill: a 1.0 / 1.0 / 1.3 series trips the
    // default 25% threshold; 1.0 / 1.0 / 1.1 does not.
    const std::vector<runledger::LedgerEntry> regressed = {
        entryWithPhase("cli", "design.route", 1.0),
        entryWithPhase("cli", "design.route", 1.0),
        entryWithPhase("cli", "design.route", 1.3),
    };
    std::vector<runledger::ToolTrend> trends =
        runledger::ledgerTrends(regressed);
    ASSERT_EQ(trends.size(), 1u);
    EXPECT_EQ(trends[0].tool, "cli");
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

    const std::vector<runledger::LedgerEntry> steady = {
        entryWithPhase("cli", "design.route", 1.0),
        entryWithPhase("cli", "design.route", 1.0),
        entryWithPhase("cli", "design.route", 1.1),
    };
    trends = runledger::ledgerTrends(steady);
    ASSERT_EQ(trends.size(), 1u);
    EXPECT_FALSE(trends[0].anyRegression());
}

TEST(RunLedger, TrendNeedsPriorsAndIgnoresNoiseFloor)
{
    // Two observations: no baseline yet, never flagged.
    const std::vector<runledger::LedgerEntry> two = {
        entryWithPhase("cli", "p", 1.0),
        entryWithPhase("cli", "p", 10.0),
    };
    std::vector<runledger::ToolTrend> trends =
        runledger::ledgerTrends(two);
    ASSERT_EQ(trends.size(), 1u);
    EXPECT_FALSE(trends[0].anyRegression());

    // Microsecond phases regress by 10x without meaning anything; the
    // minSeconds floor keeps them quiet.
    const std::vector<runledger::LedgerEntry> tiny = {
        entryWithPhase("cli", "p", 1e-6),
        entryWithPhase("cli", "p", 1e-6),
        entryWithPhase("cli", "p", 1e-5),
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
    const std::vector<runledger::LedgerEntry> entries = {
        entryWithPhase("a", "p", 1.0), entryWithPhase("b", "p", 1.0),
        entryWithPhase("a", "p", 1.0), entryWithPhase("b", "p", 1.0),
        entryWithPhase("a", "p", 2.0), entryWithPhase("b", "p", 1.0),
    };
    const std::vector<runledger::ToolTrend> trends =
        runledger::ledgerTrends(entries);
    ASSERT_EQ(trends.size(), 2u);
    EXPECT_EQ(trends[0].tool, "a");
    EXPECT_TRUE(trends[0].anyRegression());
    EXPECT_EQ(trends[1].tool, "b");
    EXPECT_FALSE(trends[1].anyRegression());
}

} // namespace
} // namespace youtiao
