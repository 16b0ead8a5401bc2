/**
 * @file
 * Resource-watchdog suite: sampler lifecycle and the recorded series,
 * gauge publication, stall detection through the ScopedTimer hooks, the
 * run record's resource_samples block round-tripping through
 * runledger::parsePerfRecord, and the observation-only contract -- a
 * seeded design is byte-identical with the full observability stack
 * armed at 1 and 4 threads.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>

#include "chip/topology_builder.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/prng.hpp"
#include "common/runledger.hpp"
#include "common/watchdog.hpp"
#include "core/serialization.hpp"
#include "core/youtiao.hpp"
#include "noise/crosstalk_data.hpp"

namespace youtiao {
namespace {

/** RAII: never leak a running sampler into the next test. */
struct WatchdogGuard
{
    ~WatchdogGuard()
    {
        watchdog::stop();
    }
};

TEST(Watchdog, StartCollectsSamplesUntilStop)
{
    const WatchdogGuard guard;
    EXPECT_FALSE(watchdog::running());
    watchdog::Config config;
    config.intervalSeconds = 0.002;
    ASSERT_TRUE(watchdog::start(config));
    EXPECT_TRUE(watchdog::running());
    EXPECT_FALSE(watchdog::start(config)); // already running
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    watchdog::stop();
    EXPECT_FALSE(watchdog::running());

    const std::vector<watchdog::Sample> samples = watchdog::samples();
    ASSERT_GE(samples.size(), 2u);
    for (std::size_t i = 1; i < samples.size(); ++i) {
        EXPECT_GE(samples[i].tsSeconds, samples[i - 1].tsSeconds);
        EXPECT_GE(samples[i].cpuSeconds, samples[i - 1].cpuSeconds);
    }
#if defined(__linux__)
    // /proc/self/statm is always readable on Linux.
    EXPECT_GT(samples.back().rssBytes, 0u);
#endif
    EXPECT_EQ(watchdog::droppedSamples(), 0u);
}

TEST(Watchdog, GaugePublishesRunningPeak)
{
    const WatchdogGuard guard;
    watchdog::Config config;
    config.intervalSeconds = 0.002;
    ASSERT_TRUE(watchdog::start(config));
    watchdog::gaugeMax(watchdog::Gauge::AstarArenaBytes, 4096);
    watchdog::gaugeMax(watchdog::Gauge::AstarArenaBytes, 1024);
    EXPECT_EQ(watchdog::gaugeValue(watchdog::Gauge::AstarArenaBytes),
              4096u);
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    watchdog::stop();
    const std::vector<watchdog::Sample> samples = watchdog::samples();
    ASSERT_FALSE(samples.empty());
    EXPECT_EQ(samples.back().astarArenaBytes, 4096u);
}

TEST(Watchdog, GaugeIsNoopWhenDisabled)
{
    ASSERT_FALSE(watchdog::running());
    const std::uint64_t before =
        watchdog::gaugeValue(watchdog::Gauge::PoolQueueDepth);
    watchdog::gaugeMax(watchdog::Gauge::PoolQueueDepth, before + 999);
    EXPECT_EQ(watchdog::gaugeValue(watchdog::Gauge::PoolQueueDepth),
              before);
}

TEST(Watchdog, StallDetectorFlagsBudgetedPhase)
{
    const WatchdogGuard guard;
    watchdog::Config config;
    config.intervalSeconds = 0.002;
    config.phaseBudgets = {{"unit.slow_phase", 0.01}};
    ASSERT_TRUE(watchdog::start(config));
    {
        // ScopedTimer feeds phaseBegin/phaseEnd; holding the phase past
        // its 10 ms budget must trip the detector at least once.
        const metrics::ScopedTimer timer("unit.slow_phase");
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    {
        // An unbudgeted phase never trips it.
        const metrics::ScopedTimer timer("unit.untracked_phase");
    }
    watchdog::stop();
    EXPECT_GE(watchdog::stallCount(), 1u);
}

TEST(Watchdog, FastBudgetedPhaseDoesNotTrip)
{
    const WatchdogGuard guard;
    watchdog::Config config;
    config.intervalSeconds = 0.002;
    config.phaseBudgets = {{"unit.fast_phase", 5.0}};
    ASSERT_TRUE(watchdog::start(config));
    {
        const metrics::ScopedTimer timer("unit.fast_phase");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    watchdog::stop();
    EXPECT_EQ(watchdog::stallCount(), 0u);
}

TEST(Watchdog, StartFromEnvHonorsVariable)
{
    const WatchdogGuard guard;
    ::unsetenv("YOUTIAO_WATCHDOG");
    EXPECT_FALSE(watchdog::startFromEnv());
    ::setenv("YOUTIAO_WATCHDOG", "0", 1);
    EXPECT_FALSE(watchdog::startFromEnv());
    ::setenv("YOUTIAO_WATCHDOG", "5", 1);
    EXPECT_TRUE(watchdog::startFromEnv());
    EXPECT_TRUE(watchdog::running());
    watchdog::stop();
    ::unsetenv("YOUTIAO_WATCHDOG");
}

TEST(Watchdog, ResourceSamplesRoundTripThroughPerfRecord)
{
    const WatchdogGuard guard;
    metrics::Registry::global().reset();
    watchdog::Config config;
    config.intervalSeconds = 0.002;
    ASSERT_TRUE(watchdog::start(config));
    watchdog::gaugeMax(watchdog::Gauge::AstarArenaBytes, 2048);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    watchdog::stop();

    runledger::Recorder recorder("watchdog_unit");
    const std::string json = recorder.finish();
    EXPECT_NE(json.find("\"schema\":\"youtiao-perf-5\""),
              std::string::npos);
    EXPECT_NE(json.find("\"resource_samples\":"), std::string::npos);
    EXPECT_NE(json.find("\"watchdog_stalls\":"), std::string::npos);

    const runledger::PerfRecord record = runledger::parsePerfRecord(json);
    EXPECT_EQ(record.schema, "youtiao-perf-5");
    ASSERT_EQ(record.resourceSamples.size(),
              watchdog::samples().size());
    ASSERT_FALSE(record.resourceSamples.empty());
    EXPECT_EQ(record.resourceSamples.back().astarArenaBytes, 2048u);
    EXPECT_EQ(record.watchdogStalls, 0u);
    metrics::Registry::global().reset();
}

/** Serialized design of one seeded run on the current thread config. */
std::string
designText()
{
    const ChipTopology chip = makeTopology(TopologyFamily::SquareGrid,
                                           4, 4);
    YoutiaoConfig config;
    config.seed = 2025;
    Prng prng(config.seed);
    const ChipCharacterization data = characterizeChip(chip, prng);
    const YoutiaoDesign design =
        YoutiaoDesigner(config).designFromMeasurements(chip, data);
    std::ostringstream out;
    saveDesign(out, design);
    return out.str();
}

TEST(Watchdog, DesignIsByteIdenticalWithWatchdogOnAtAnyThreadCount)
{
    const WatchdogGuard guard;
    const std::string baseline = designText();

    watchdog::Config config;
    config.intervalSeconds = 0.002;
    config.phaseBudgets = {{"design.partition", 100.0}};

    ThreadPool::setGlobalThreadCount(1);
    ASSERT_TRUE(watchdog::start(config));
    const std::string serial = designText();
    watchdog::stop();

    ThreadPool::setGlobalThreadCount(4);
    ASSERT_TRUE(watchdog::start(config));
    const std::string parallel = designText();
    watchdog::stop();
    ThreadPool::setGlobalThreadCount(0);

    EXPECT_EQ(baseline, serial);
    EXPECT_EQ(baseline, parallel);
}

} // namespace
} // namespace youtiao
