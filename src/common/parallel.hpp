/**
 * @file
 * Shared thread pool and data-parallel loop primitives.
 *
 * Every hot path in YOUTIAO (random-forest tree fits and batch
 * predictions, the hierarchical designer's tiles, the bench harness
 * fan-out over chip sizes) parallelizes through this one pool so thread
 * creation is paid once per process and oversubscription cannot happen.
 *
 * Determinism contract: the pool schedules *where* work runs, never
 * *what* it computes. Callers decompose work into logical tasks whose
 * results are written to disjoint, index-addressed slots, and any
 * randomness is drawn from a per-task stream derived with taskSeed()
 * (SplitMix64, see common/prng.hpp) from the caller's root seed. Under
 * that discipline results are bit-identical for any thread count,
 * including the exact-serial fallback selected by `YOUTIAO_THREADS=1`.
 */

#ifndef YOUTIAO_COMMON_PARALLEL_HPP
#define YOUTIAO_COMMON_PARALLEL_HPP

#include <cstddef>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace youtiao {

/**
 * Thread count the global pool is built with: the `YOUTIAO_THREADS`
 * environment variable when set to a positive integer (1 = exact serial
 * execution), otherwise std::thread::hardware_concurrency(), with a
 * floor of one.
 */
std::size_t configuredThreadCount();

/**
 * Thread pool.
 *
 * The pool owns threadCount()-1 worker threads fed from one FIFO of
 * helper slots under one mutex. Parallel loops run through forRange(),
 * which carves [begin, end) into grain-sized chunks that the calling
 * thread and the helping workers claim dynamically - the calling thread
 * always participates, so a loop submitted from inside a task (nested
 * parallelism) makes progress even when every worker is busy and cannot
 * deadlock.
 */
class ThreadPool
{
  public:
    /** @p thread_count lanes, or configuredThreadCount() when 0. */
    explicit ThreadPool(std::size_t thread_count = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Execution lanes, counting the thread that calls forRange(). */
    std::size_t threadCount() const { return workerCount_ + 1; }

    /**
     * Invoke @p body on consecutive chunks [b, e) covering [begin, end),
     * each at most @p grain long. Blocks until every chunk finished; the
     * first exception thrown by any chunk is rethrown here (remaining
     * chunks still run to completion so the pool stays consistent).
     * With one lane, or when the range fits a single chunk, @p body runs
     * inline on the calling thread - the exact serial fallback.
     */
    void forRange(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)> &body);

    /** Process-wide pool, built on first use. */
    static ThreadPool &global();

    /**
     * Rebuild the global pool with @p thread_count lanes (0 = re-read the
     * environment). Startup/test use only: callers must ensure no loop is
     * in flight on the global pool.
     */
    static void setGlobalThreadCount(std::size_t thread_count);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
    std::size_t workerCount_ = 0;
};

namespace detail {

/** Chunk size targeting ~4 claimable chunks per lane. */
inline std::size_t
defaultGrain(std::size_t items, std::size_t lanes)
{
    const std::size_t chunks = lanes * 4;
    return items < chunks ? 1 : items / chunks;
}

} // namespace detail

/**
 * parallel_for: call fn(i) for every i in [begin, end) across the pool.
 * Iterations must be independent; fn may write only to slot i of shared
 * output. @p grain 0 picks a chunk size automatically; @p pool nullptr
 * uses the global pool.
 */
template <typename Fn>
void
parallelFor(std::size_t begin, std::size_t end, Fn &&fn,
            std::size_t grain = 0, ThreadPool *pool = nullptr)
{
    if (end <= begin)
        return;
    ThreadPool &p = pool != nullptr ? *pool : ThreadPool::global();
    if (grain == 0)
        grain = detail::defaultGrain(end - begin, p.threadCount());
    p.forRange(begin, end, grain,
               [&fn](std::size_t b, std::size_t e) {
                   for (std::size_t i = b; i < e; ++i)
                       fn(i);
               });
}

/**
 * Chunk-granular parallel_for: body(b, e) over grain-sized subranges.
 * Prefer this over parallelFor for tight numeric kernels where a
 * per-index std::function call would dominate.
 */
template <typename Body>
void
parallelChunks(std::size_t begin, std::size_t end, std::size_t grain,
               Body &&body, ThreadPool *pool = nullptr)
{
    if (end <= begin)
        return;
    ThreadPool &p = pool != nullptr ? *pool : ThreadPool::global();
    if (grain == 0)
        grain = detail::defaultGrain(end - begin, p.threadCount());
    p.forRange(begin, end, grain, std::forward<Body>(body));
}

/**
 * parallel_map: fn over every element of @p items, results in input
 * order (slot i holds fn(items[i]), so output is independent of the
 * schedule). The result type must be default-constructible.
 */
template <typename T, typename Fn>
auto
parallelMap(const std::vector<T> &items, Fn &&fn,
            ThreadPool *pool = nullptr)
    -> std::vector<std::decay_t<decltype(fn(items.front()))>>
{
    std::vector<std::decay_t<decltype(fn(items.front()))>> out(
        items.size());
    parallelFor(
        0, items.size(), [&](std::size_t i) { out[i] = fn(items[i]); }, 1,
        pool);
    return out;
}

} // namespace youtiao

#endif // YOUTIAO_COMMON_PARALLEL_HPP
