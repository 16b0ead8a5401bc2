/**
 * @file
 * Parallel-vs-serial equivalence suite: every parallelized component
 * (random-forest fits and predictions, the designer) must produce
 * bit-identical results at 1, 2 and N threads from the same root seed.
 * This is the enforcement point for the pool's determinism contract
 * (see common/parallel.hpp).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "chip/topology_builder.hpp"
#include "common/fault.hpp"
#include "common/flight.hpp"
#include "common/log.hpp"
#include "common/parallel.hpp"
#include "common/prng.hpp"
#include "common/trace.hpp"
#include "core/serialization.hpp"
#include "core/youtiao.hpp"
#include "noise/random_forest.hpp"
#include "test_support.hpp"

namespace youtiao {
namespace {

/** Run @p fn with the global pool rebuilt at each of the given thread
 *  counts, restore the environment default afterwards, and return one
 *  result per count. */
template <typename Fn>
auto
resultsAtThreadCounts(const std::vector<std::size_t> &counts, Fn &&fn)
{
    std::vector<decltype(fn())> results;
    results.reserve(counts.size());
    for (std::size_t threads : counts) {
        ThreadPool::setGlobalThreadCount(threads);
        results.push_back(fn());
    }
    ThreadPool::setGlobalThreadCount(0);
    return results;
}

const std::vector<std::size_t> kCounts{1, 2, 4, 7};

TEST(TaskSeed, MatchesSplitMixSequenceAndDecorrelates)
{
    std::uint64_t state = 42;
    for (std::uint64_t i = 0; i < 16; ++i)
        EXPECT_EQ(splitMix64(state), taskSeed(42, i));
    EXPECT_NE(taskSeed(1, 0), taskSeed(1, 1));
    EXPECT_NE(taskSeed(1, 0), taskSeed(2, 0));
}

TEST(ParallelDeterminism, RandomForestPredictionsBitIdentical)
{
    std::vector<double> x, y;
    Prng data(0xF0);
    for (int i = 0; i < 300; ++i) {
        x.push_back(i / 30.0);
        y.push_back(std::exp(-0.5 * x.back()) + data.gaussian(0.0, 0.02));
    }
    auto predictions = [&] {
        RandomForest forest;
        Prng prng(0xAB);
        forest.fit(x, y, prng);
        std::vector<double> preds(x.size());
        forest.predictBatch(x, preds);
        return preds;
    };
    const auto runs = resultsAtThreadCounts(kCounts, predictions);
    for (std::size_t r = 1; r < runs.size(); ++r) {
        ASSERT_EQ(runs[r].size(), runs[0].size());
        for (std::size_t i = 0; i < runs[0].size(); ++i)
            ASSERT_EQ(runs[r][i], runs[0][i])
                << "row " << i << " at " << kCounts[r] << " threads";
    }
}

TEST(ParallelDeterminism, TracedAndLoggedDesignBitIdenticalToBare)
{
    // Tracing, logging and the flight recorder observe the pipeline and
    // never feed back into it: a fully instrumented designer run must
    // serialize byte for byte like a bare run, at serial and parallel
    // thread counts. This pins the observation-only contract.
    const ChipTopology chip = makeSquareGrid(4, 4);
    Prng prng(11);
    const ChipCharacterization data = characterizeChip(chip, prng);
    YoutiaoConfig config;
    config.fit.forest.treeCount = 8;
    auto designText = [&] {
        return designToString(
            YoutiaoDesigner(config).design(chip, data));
    };
    // install() is first-call-wins per process, so the dump directory
    // lives as long as the installation.
    static const TestDir dir;
    static const bool installed =
        flight::install("determinism", dir.path().c_str());
    (void)installed;
    ASSERT_TRUE(flight::enabled());
    flight::setEnabledForTest(false);
    const log::Level old_level = log::level();
    std::size_t log_lines = 0;
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        ThreadPool::setGlobalThreadCount(threads);
        const std::string bare = designText();

        flight::resetForTest();
        flight::setEnabledForTest(true);
        trace::Tracer::global().enable();
        log::setLevel(log::Level::Debug);
        log::setSink([&log_lines](std::string_view) { ++log_lines; });
        const std::string instrumented = designText();
        log::setSink(nullptr);
        log::setLevel(old_level);
        trace::Tracer::global().disable();
        flight::setEnabledForTest(false);

        EXPECT_EQ(instrumented, bare) << threads << " threads";
        // The instrumented run must actually have traced and recorded
        // something.
        EXPECT_NE(trace::Tracer::global().toJson().find(
                      "design.xy_grouping"),
                  std::string::npos)
            << threads << " threads";
        ASSERT_TRUE(flight::dump("determinism"));
        std::ifstream dump(flight::dumpPath());
        const std::string dumped{std::istreambuf_iterator<char>(dump), {}};
        EXPECT_NE(dumped.find("\"text\":\"design."), std::string::npos)
            << threads << " threads";
    }
    EXPECT_GT(log_lines, 0u);
    ThreadPool::setGlobalThreadCount(0);
}

TEST(ParallelDeterminism, ZeroFaultRobustPathBitIdenticalAcrossThreads)
{
    // With the fault layer compiled in but unarmed, the robust entry
    // point must serialize byte for byte alike at every thread count
    // (the golden digests in tests/test_degradation.cpp pin the bytes).
    fault::reset();
    const ChipTopology chip = makeSquareGrid(4, 4);
    Prng prng(21);
    const ChipCharacterization data = characterizeChip(chip, prng);
    const YoutiaoDesigner designer;
    auto designText = [&] {
        auto result = designer.designFromMeasurementsRobust(chip, data);
        EXPECT_TRUE(result.hasValue());
        EXPECT_TRUE(result.value().degradation.empty());
        return designToString(result.value());
    };
    const auto runs = resultsAtThreadCounts({1, 4}, designText);
    EXPECT_EQ(runs[1], runs[0]);
}

TEST(ParallelDeterminism, FixedFaultSpecReproducesTheDegradationReport)
{
    // A fixed spec + seed is a replayable experiment: the degraded
    // design and its DegradationReport come out identical run to run.
    const ChipTopology chip = makeSquareGrid(5, 5);
    Prng prng(33);
    const ChipCharacterization data = characterizeChip(chip, prng);
    const YoutiaoDesigner designer;
    auto degradedRun = [&] {
        fault::reset();
        fault::configure(
            "freq.allocate:0.5:77,tdm.demux_channel:0.4:5");
        fault::enable();
        auto result = designer.designFromMeasurementsRobust(chip, data);
        fault::reset();
        EXPECT_TRUE(result.hasValue());
        return designToString(result.value()) + "\n===\n" +
               result.value().degradation.summary();
    };
    const std::string first = degradedRun();
    const std::string second = degradedRun();
    EXPECT_EQ(first, second);
    EXPECT_NE(first.find("-- degradation --"), std::string::npos);
}

} // namespace
} // namespace youtiao
