#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parallel.hpp"

namespace youtiao {
namespace {

/** Scoped YOUTIAO_THREADS override restoring the prior value on exit. */
class ScopedThreadsEnv
{
  public:
    explicit ScopedThreadsEnv(const char *value)
    {
        const char *old = std::getenv("YOUTIAO_THREADS");
        if (old != nullptr)
            saved_ = old;
        had_ = old != nullptr;
        if (value != nullptr)
            setenv("YOUTIAO_THREADS", value, 1);
        else
            unsetenv("YOUTIAO_THREADS");
    }

    ~ScopedThreadsEnv()
    {
        if (had_)
            setenv("YOUTIAO_THREADS", saved_.c_str(), 1);
        else
            unsetenv("YOUTIAO_THREADS");
    }

  private:
    std::string saved_;
    bool had_ = false;
};

TEST(ConfiguredThreadCount, HonorsEnvOverride)
{
    ScopedThreadsEnv env("3");
    EXPECT_EQ(configuredThreadCount(), 3u);
}

TEST(ConfiguredThreadCount, SerialOverrideGivesOneLane)
{
    ScopedThreadsEnv env("1");
    EXPECT_EQ(configuredThreadCount(), 1u);
    ThreadPool pool;
    EXPECT_EQ(pool.threadCount(), 1u);
}

TEST(ConfiguredThreadCount, IgnoresInvalidValues)
{
    // "-3" once wrapped through strtoul to ~1.8e19 and made the pool
    // try to reserve that many workers; huge values are capped too.
    for (const char *bad :
         {"0", "-2", "-3", "fast", "4x", "", " 4", "99999999999"}) {
        ScopedThreadsEnv env(bad);
        const std::size_t n = configuredThreadCount();
        EXPECT_GE(n, 1u) << "value: " << bad;
        EXPECT_LE(n, 1024u) << "value: " << bad;
    }
}

TEST(ParallelFor, EmptyRangeNeverInvokesBody)
{
    ThreadPool pool(4);
    std::atomic<int> calls{0};
    parallelFor(5, 5, [&](std::size_t) { ++calls; }, 0, &pool);
    parallelFor(7, 3, [&](std::size_t) { ++calls; }, 0, &pool);
    EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, OneElementRange)
{
    ThreadPool pool(4);
    std::vector<int> hits(1, 0);
    parallelFor(0, 1, [&](std::size_t i) { ++hits[i]; }, 0, &pool);
    EXPECT_EQ(hits[0], 1);
}

TEST(ParallelFor, OddSizedRangeCoversEveryIndexOnce)
{
    ThreadPool pool(3);
    const std::size_t n = 10007; // prime, never divides evenly
    std::vector<std::atomic<int>> hits(n);
    parallelFor(0, n, [&](std::size_t i) { ++hits[i]; }, 16, &pool);
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, OffsetRange)
{
    ThreadPool pool(2);
    std::atomic<long> sum{0};
    parallelFor(100, 200, [&](std::size_t i) {
        sum += static_cast<long>(i);
    }, 7, &pool);
    EXPECT_EQ(sum.load(), (100L + 199L) * 100L / 2L);
}

TEST(ParallelFor, ExceptionPropagatesToCaller)
{
    ThreadPool pool(4);
    auto boom = [&] {
        parallelFor(0, 1000, [](std::size_t i) {
            if (i == 517)
                throw std::runtime_error("task failed");
        }, 8, &pool);
    };
    EXPECT_THROW(boom(), std::runtime_error);
    // The pool must stay usable after a failed loop.
    std::atomic<int> calls{0};
    parallelFor(0, 64, [&](std::size_t) { ++calls; }, 4, &pool);
    EXPECT_EQ(calls.load(), 64);
}

TEST(ParallelFor, ExceptionInSerialFallbackPropagates)
{
    ThreadPool pool(1);
    auto boom = [&] {
        parallelFor(0, 10, [](std::size_t i) {
            if (i == 3)
                throw std::runtime_error("serial failure");
        }, 0, &pool);
    };
    EXPECT_THROW(boom(), std::runtime_error);
}

TEST(ParallelFor, NestedSubmissionCompletes)
{
    // Two lanes is the pool the hierarchical scale-out benchmark runs.
    for (std::size_t lanes : {4u, 2u}) {
        ThreadPool pool(lanes);
        const std::size_t outer = 8, inner = 64;
        std::vector<std::atomic<long>> sums(outer);
        parallelFor(0, outer, [&](std::size_t o) {
            parallelFor(0, inner, [&](std::size_t i) {
                sums[o] += static_cast<long>(i);
            }, 4, &pool);
        }, 1, &pool);
        for (std::size_t o = 0; o < outer; ++o)
            EXPECT_EQ(sums[o].load(), (0L + 63L) * 64L / 2L)
                << lanes << " lanes";
    }
}

TEST(ParallelFor, SerialPoolRunsInAscendingOrder)
{
    ThreadPool pool(1);
    std::vector<std::size_t> order;
    parallelFor(0, 100, [&](std::size_t i) { order.push_back(i); }, 8,
                &pool);
    ASSERT_EQ(order.size(), 100u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ParallelChunks, ChunksPartitionTheRange)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1001);
    parallelChunks(0, 1001, 97, [&](std::size_t b, std::size_t e) {
        ASSERT_LT(b, e);
        ASSERT_LE(e - b, 97u);
        for (std::size_t i = b; i < e; ++i)
            ++hits[i];
    }, &pool);
    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelMap, ResultsComeBackInInputOrder)
{
    ThreadPool pool(4);
    std::vector<int> items(333);
    std::iota(items.begin(), items.end(), 0);
    const std::vector<int> doubled =
        parallelMap(items, [](int v) { return 2 * v; }, &pool);
    ASSERT_EQ(doubled.size(), items.size());
    for (std::size_t i = 0; i < items.size(); ++i)
        EXPECT_EQ(doubled[i], 2 * items[i]);
}

TEST(ThreadPool, GlobalPoolIsReconfigurable)
{
    ThreadPool::setGlobalThreadCount(2);
    EXPECT_EQ(ThreadPool::global().threadCount(), 2u);
    std::atomic<int> calls{0};
    parallelFor(0, 50, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 50);
    ThreadPool::setGlobalThreadCount(0); // back to the environment default
    EXPECT_GE(ThreadPool::global().threadCount(), 1u);
}

} // namespace
} // namespace youtiao
