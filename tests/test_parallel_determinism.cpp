/**
 * @file
 * Parallel-vs-serial equivalence suite: every parallelized component
 * (state-vector kernels, noisy-sampler shot batches, random-forest
 * fits) must produce bit-identical results at 1, 2 and N threads from
 * the same root seed. This is the enforcement point for the pool's
 * determinism contract (see common/parallel.hpp).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
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
#include "sim/noisy_sampler.hpp"
#include "sim/statevector.hpp"
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

QuantumCircuit
randomCircuit(std::size_t qubits, std::size_t gates, std::uint64_t seed)
{
    QuantumCircuit qc(qubits);
    Prng prng(seed);
    for (std::size_t g = 0; g < gates; ++g) {
        const std::size_t q = prng.uniformInt(qubits);
        switch (prng.uniformInt(std::size_t{5})) {
          case 0:
            qc.rx(q, prng.uniform(-3.0, 3.0));
            break;
          case 1:
            qc.ry(q, prng.uniform(-3.0, 3.0));
            break;
          case 2:
            qc.rz(q, prng.uniform(-3.0, 3.0));
            break;
          case 3:
            qc.h(q);
            break;
          default: {
            std::size_t other = prng.uniformInt(qubits);
            if (other == q)
                other = (q + 1) % qubits;
            qc.cz(q, other);
            break;
          }
        }
    }
    return qc;
}

TEST(TaskSeed, MatchesSplitMixSequenceAndDecorrelates)
{
    std::uint64_t state = 42;
    for (std::uint64_t i = 0; i < 16; ++i)
        EXPECT_EQ(splitMix64(state), taskSeed(42, i));
    EXPECT_NE(taskSeed(1, 0), taskSeed(1, 1));
    EXPECT_NE(taskSeed(1, 0), taskSeed(2, 0));
}

TEST(ParallelDeterminism, StateVectorAmplitudesBitIdentical)
{
    // 15 qubits = 32768 amplitudes: several chunks per gate kernel.
    auto amplitudes = [] {
        const QuantumCircuit qc = randomCircuit(15, 120, 0xDE7);
        return simulate(qc).amplitudes();
    };
    const auto runs = resultsAtThreadCounts(kCounts, amplitudes);
    for (std::size_t r = 1; r < runs.size(); ++r) {
        ASSERT_EQ(runs[r].size(), runs[0].size());
        for (std::size_t i = 0; i < runs[0].size(); ++i) {
            ASSERT_EQ(runs[r][i].real(), runs[0][i].real())
                << "amp " << i << " at " << kCounts[r] << " threads";
            ASSERT_EQ(runs[r][i].imag(), runs[0][i].imag())
                << "amp " << i << " at " << kCounts[r] << " threads";
        }
    }
}

TEST(ParallelDeterminism, NoisySamplerHistogramBitIdentical)
{
    QuantumCircuit qc(3);
    for (int i = 0; i < 5; ++i) {
        qc.rx(0, 1.0);
        qc.rx(1, 1.0);
        qc.cz(0, 1);
        qc.cz(1, 2);
    }
    FidelityContext ctx;
    ctx.xyCoupling = SymmetricMatrix(3, 0.0);
    ctx.zzMHz = SymmetricMatrix(3, 0.0);
    ctx.xyCoupling(0, 1) = 5e-2;
    ctx.zzMHz(0, 2) = 0.5;
    ctx.frequencyGHz = {4.5, 4.8, 5.1};
    ctx.fdmLineOfQubit.assign(3, FidelityContext::kDedicated);
    ctx.t1Ns.assign(3, 90e3);
    NoiseModelConfig cfg;
    cfg.oneQubitBaseError = 5e-3;
    cfg.twoQubitBaseError = 2e-2;
    ctx.noise = NoiseModel(cfg);
    const Schedule s = scheduleCircuit(qc);

    // 5000 shots spread over ten 512-shot batches.
    auto sample = [&] {
        Prng prng(0xBEEF);
        return sampleNoisyExecution(qc, s, ctx, 5000, prng);
    };
    const auto runs = resultsAtThreadCounts(kCounts, sample);
    for (std::size_t r = 1; r < runs.size(); ++r) {
        EXPECT_EQ(runs[r].errorFreeShots, runs[0].errorFreeShots)
            << kCounts[r] << " threads";
        EXPECT_EQ(runs[r].totalErrorEvents, runs[0].totalErrorEvents)
            << kCounts[r] << " threads";
    }
    EXPECT_EQ(runs[0].shots, 5000u);
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
        forest.fit(x, 1, y, prng);
        std::vector<double> preds;
        preds.reserve(x.size());
        for (const double &v : x)
            preds.push_back(forest.predict({&v, 1}));
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

TEST(ParallelDeterminism, CallerPrngAdvancesIdentically)
{
    // The sampler consumes exactly one draw from the caller's generator
    // regardless of thread count, so downstream draws stay aligned.
    QuantumCircuit qc(2);
    qc.cz(0, 1);
    FidelityContext ctx;
    ctx.xyCoupling = SymmetricMatrix(2, 0.0);
    ctx.zzMHz = SymmetricMatrix(2, 0.0);
    ctx.frequencyGHz = {4.5, 4.8};
    ctx.fdmLineOfQubit.assign(2, FidelityContext::kDedicated);
    ctx.t1Ns.assign(2, 90e3);
    const Schedule s = scheduleCircuit(qc);
    auto nextDraw = [&] {
        Prng prng(99);
        sampleNoisyExecution(qc, s, ctx, 1500, prng);
        return prng.next();
    };
    const auto runs = resultsAtThreadCounts(kCounts, nextDraw);
    for (std::size_t r = 1; r < runs.size(); ++r)
        EXPECT_EQ(runs[r], runs[0]);
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
