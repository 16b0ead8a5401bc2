#include "common/parallel.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <thread>

namespace youtiao {

namespace {

/** Ceiling on YOUTIAO_THREADS: above this a typo (or sign wraparound
 *  from a negative value) would exhaust the process on thread stacks. */
constexpr unsigned long kMaxThreads = 1024;

} // namespace

std::size_t
configuredThreadCount()
{
    if (const char *env = std::getenv("YOUTIAO_THREADS")) {
        // Digits only: strtoul would silently wrap "-3" to a huge value.
        bool digits = *env != '\0';
        for (const char *c = env; *c != '\0'; ++c)
            digits = digits && *c >= '0' && *c <= '9';
        char *end = nullptr;
        const unsigned long v = digits ? std::strtoul(env, &end, 10) : 0;
        if (v >= 1 && v <= kMaxThreads)
            return static_cast<std::size_t>(v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

struct ThreadPool::Impl
{
    /** One chunked loop in flight. Chunks are claimed by advancing
     *  `next`; `running` counts claims still executing, so completion is
     *  `next >= end && running == 0`. */
    struct Job
    {
        const std::function<void(std::size_t, std::size_t)> *body = nullptr;
        std::size_t end = 0;
        std::size_t grain = 1;
        std::atomic<std::size_t> next{0};
        std::atomic<std::size_t> running{0};
        std::mutex doneMutex;
        std::condition_variable done;
        std::mutex errorMutex;
        std::exception_ptr error;
    };

    /** Per-worker deque; the owner pushes/pops the back, thieves take
     *  the front. Guarded by a mutex - task granularity is coarse enough
     *  (whole helper jobs) that a lock-free deque buys nothing. */
    struct WorkerQueue
    {
        std::mutex mutex;
        std::deque<std::function<void()>> tasks;
    };

    std::vector<std::unique_ptr<WorkerQueue>> queues;
    std::vector<std::thread> threads;
    std::mutex wakeMutex;
    std::condition_variable wake;
    std::atomic<std::size_t> pending{0};
    std::atomic<std::size_t> nextQueue{0};
    bool stopping = false;

    explicit Impl(std::size_t workers)
    {
        queues.reserve(workers);
        for (std::size_t i = 0; i < workers; ++i)
            queues.push_back(std::make_unique<WorkerQueue>());
        threads.reserve(workers);
        for (std::size_t i = 0; i < workers; ++i)
            threads.emplace_back([this, i] { workerLoop(i); });
    }

    ~Impl()
    {
        {
            std::lock_guard<std::mutex> lock(wakeMutex);
            stopping = true;
        }
        wake.notify_all();
        for (std::thread &t : threads)
            t.join();
    }

    void
    submit(std::function<void()> task)
    {
        const std::size_t home =
            nextQueue.fetch_add(1, std::memory_order_relaxed) %
            queues.size();
        {
            std::lock_guard<std::mutex> lock(queues[home]->mutex);
            queues[home]->tasks.push_back(std::move(task));
        }
        {
            // Serialize with the workers' wait predicate so the notify
            // cannot slip between a predicate check and the block.
            std::lock_guard<std::mutex> lock(wakeMutex);
            pending.fetch_add(1, std::memory_order_release);
        }
        wake.notify_one();
    }

    bool
    tryTake(std::size_t self, std::function<void()> &out)
    {
        // Own queue from the back (most recently submitted), then sweep
        // the siblings from the front - classic work stealing.
        {
            WorkerQueue &own = *queues[self];
            std::lock_guard<std::mutex> lock(own.mutex);
            if (!own.tasks.empty()) {
                out = std::move(own.tasks.back());
                own.tasks.pop_back();
                return true;
            }
        }
        for (std::size_t k = 1; k < queues.size(); ++k) {
            WorkerQueue &victim = *queues[(self + k) % queues.size()];
            std::lock_guard<std::mutex> lock(victim.mutex);
            if (!victim.tasks.empty()) {
                out = std::move(victim.tasks.front());
                victim.tasks.pop_front();
                return true;
            }
        }
        return false;
    }

    void
    workerLoop(std::size_t self)
    {
        for (;;) {
            std::function<void()> task;
            if (tryTake(self, task)) {
                pending.fetch_sub(1, std::memory_order_acquire);
                task();
                continue;
            }
            std::unique_lock<std::mutex> lock(wakeMutex);
            wake.wait(lock, [this] {
                return stopping ||
                       pending.load(std::memory_order_acquire) > 0;
            });
            if (stopping)
                return;
        }
    }

    /** Claim and run chunks of @p job until none remain. */
    static void
    drain(const std::shared_ptr<Job> &job)
    {
        for (;;) {
            job->running.fetch_add(1, std::memory_order_acq_rel);
            const std::size_t b =
                job->next.fetch_add(job->grain, std::memory_order_acq_rel);
            if (b >= job->end) {
                finishClaim(job);
                return;
            }
            const std::size_t e = std::min(b + job->grain, job->end);
            try {
                (*job->body)(b, e);
            } catch (...) {
                std::lock_guard<std::mutex> lock(job->errorMutex);
                if (!job->error)
                    job->error = std::current_exception();
            }
            finishClaim(job);
        }
    }

    static void
    finishClaim(const std::shared_ptr<Job> &job)
    {
        if (job->running.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            // Possibly the last chunk: wake the joining caller, which
            // rechecks the completion predicate under doneMutex.
            std::lock_guard<std::mutex> lock(job->doneMutex);
            job->done.notify_all();
        }
    }
};

ThreadPool::ThreadPool(std::size_t thread_count)
{
    if (thread_count == 0)
        thread_count = configuredThreadCount();
    workerCount_ = thread_count - 1;
    if (workerCount_ > 0)
        impl_ = std::make_unique<Impl>(workerCount_);
}

ThreadPool::~ThreadPool() = default;

void
ThreadPool::forRange(std::size_t begin, std::size_t end, std::size_t grain,
                     const std::function<void(std::size_t, std::size_t)>
                         &body)
{
    if (end <= begin)
        return;
    if (grain == 0)
        grain = 1;
    // Serial fallback: one lane, or the whole range fits a single chunk.
    // body sees the same ascending subranges either way, so parallel and
    // serial execution compute bit-identical results.
    if (workerCount_ == 0 || end - begin <= grain) {
        body(begin, end);
        return;
    }

    auto job = std::make_shared<Impl::Job>();
    job->body = &body;
    job->end = end;
    job->grain = grain;
    job->next.store(begin, std::memory_order_relaxed);

    const std::size_t chunks = (end - begin + grain - 1) / grain;
    const std::size_t helpers = std::min(workerCount_, chunks - 1);
    for (std::size_t h = 0; h < helpers; ++h)
        impl_->submit([job] { Impl::drain(job); });

    // The caller is a full participant: it claims chunks until none are
    // left, then waits only for chunks other threads are still running.
    // A nested forRange issued from inside body therefore always has at
    // least this thread driving it - no deadlock when workers are busy.
    Impl::drain(job);
    {
        std::unique_lock<std::mutex> lock(job->doneMutex);
        job->done.wait(lock, [&job] {
            return job->running.load(std::memory_order_acquire) == 0;
        });
    }
    if (job->error)
        std::rethrow_exception(job->error);
}

namespace {

std::mutex g_global_pool_mutex;

std::unique_ptr<ThreadPool> &
globalPoolSlot()
{
    static std::unique_ptr<ThreadPool> pool;
    return pool;
}

} // namespace

ThreadPool &
ThreadPool::global()
{
    std::lock_guard<std::mutex> lock(g_global_pool_mutex);
    auto &slot = globalPoolSlot();
    if (!slot)
        slot = std::make_unique<ThreadPool>();
    return *slot;
}

void
ThreadPool::setGlobalThreadCount(std::size_t thread_count)
{
    std::lock_guard<std::mutex> lock(g_global_pool_mutex);
    auto &slot = globalPoolSlot();
    slot.reset();
    slot = std::make_unique<ThreadPool>(thread_count);
}

} // namespace youtiao
