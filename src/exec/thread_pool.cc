#include "exec/thread_pool.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/logging.hh"
#include "obs/obs.hh"

namespace hetarch {
namespace exec {

namespace {

// Telemetry: counters are thread-count invariant (tasks and calls are
// fixed by the problem partition); the histograms carry scheduling-
// dependent timings and are advisory.
obs::Counter& cParallelForCalls = obs::counter("exec.parallel_for.calls");
obs::Counter& cTasks = obs::counter("exec.tasks");
obs::Histogram& hTaskNs = obs::histogram("exec.task_ns");
obs::Histogram& hQueueWaitNs = obs::histogram("exec.queue_wait_ns");

std::uint64_t
steadyNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Per-thread flag marking execution inside a parallelFor task. */
thread_local bool tlInParallelRegion = false;

std::atomic<unsigned> gOverride{0};

unsigned
defaultThreadCount()
{
    // Startup-only configuration read; nothing writes the environment.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    if (const char* env = std::getenv("HETARCH_THREADS")) {
        const long parsed = std::strtol(env, nullptr, 10);
        if (parsed >= 1 && parsed <= long{kMaxThreads})
            return static_cast<unsigned>(parsed);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

/**
 * The shared worker pool.  Jobs are announced by bumping a generation
 * counter under the mutex; workers drain the job's index counter and
 * tally completed tasks, so which worker runs which index is free to
 * vary while results stay slot-addressed and deterministic.
 *
 * All per-job state lives in a heap-allocated Job shared between the
 * announcing thread and the workers.  A worker that wakes up late --
 * after its job already finished and a new one was announced -- still
 * holds the *old* job, whose index counter is exhausted, so it exits
 * drain() without ever touching the (by then dead) task function.
 * Resetting counters in the pool itself would hand the stale worker a
 * fresh index and a dangling std::function pointer.
 */
class Pool
{
  public:
    static Pool& instance()
    {
        static Pool pool;
        return pool;
    }

    void run(std::size_t n, const std::function<void(std::size_t)>& fn,
             unsigned workers)
    {
        auto job = std::make_shared<Job>();
        job->fn = &fn;
        job->n = n;
        job->announceNs = obs::timingEnabled() ? steadyNowNs() : 0;

        std::unique_lock<std::mutex> lock(poolMutex);
        ensureWorkersLocked(workers - 1);
        currentJob = job;
        ++generation;
        lock.unlock();
        jobAvailable.notify_all();

        drain(*job); // the calling thread works too

        lock.lock();
        jobDone.wait(lock, [&] {
            return job->completed.load(std::memory_order_acquire) == n;
        });
        currentJob.reset();
        lock.unlock();
        if (job->firstError)
            std::rethrow_exception(job->firstError);
    }

  private:
    static constexpr std::size_t kNoError =
        std::numeric_limits<std::size_t>::max();

    struct Job
    {
        const std::function<void(std::size_t)>* fn = nullptr;
        std::size_t n = 0;
        std::atomic<std::size_t> nextIndex{0};
        std::atomic<std::size_t> completed{0};
        std::uint64_t announceNs = 0;
        // Error slots are guarded by poolMutex; the announcing thread
        // reads them only after completed == n.
        std::size_t firstErrorIndex = kNoError;
        std::exception_ptr firstError;
    };

    Pool() = default;

    ~Pool()
    {
        {
            std::lock_guard<std::mutex> lock(poolMutex);
            shutdown = true;
        }
        jobAvailable.notify_all();
        for (auto& worker : threads)
            worker.join();
    }

    void ensureWorkersLocked(unsigned wanted)
    {
        while (threads.size() < wanted)
            threads.emplace_back([this] { workerLoop(); });
    }

    /** Pull task indices until the job's counter is exhausted. */
    void drain(Job& job)
    {
        tlInParallelRegion = true;
        for (;;) {
            const std::size_t i =
                job.nextIndex.fetch_add(1, std::memory_order_relaxed);
            if (i >= job.n)
                break;
            try {
                obs::ScopedTimer timer(hTaskNs);
                (*job.fn)(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(poolMutex);
                if (i < job.firstErrorIndex) {
                    job.firstErrorIndex = i;
                    job.firstError = std::current_exception();
                }
            }
            if (job.completed.fetch_add(1, std::memory_order_acq_rel) +
                    1 ==
                job.n) {
                // Empty critical section pairs with the jobDone wait.
                { std::lock_guard<std::mutex> lock(poolMutex); }
                jobDone.notify_all();
            }
        }
        tlInParallelRegion = false;
    }

    void workerLoop()
    {
        std::uint64_t seen = 0;
        std::unique_lock<std::mutex> lock(poolMutex);
        for (;;) {
            jobAvailable.wait(lock, [&] {
                return shutdown || (generation != seen && currentJob);
            });
            if (shutdown)
                return;
            seen = generation;
            auto job = currentJob; // shared: outlives the announcement
            lock.unlock();
            // Dispatch latency: time from job announcement to this
            // worker joining in (recorded once per job per worker).
            if (job->announceNs != 0 && obs::timingEnabled()) {
                const auto now = steadyNowNs();
                hQueueWaitNs.record(
                    now > job->announceNs ? now - job->announceNs : 0);
            }
            drain(*job);
            job.reset();
            lock.lock();
        }
    }

    std::mutex poolMutex;
    std::condition_variable jobAvailable;
    std::condition_variable jobDone;
    std::vector<std::thread> threads;
    bool shutdown = false;

    // Current job announcement (guarded by poolMutex).
    std::uint64_t generation = 0;
    std::shared_ptr<Job> currentJob;
};

} // namespace

unsigned
threadCount()
{
    const unsigned forced = gOverride.load(std::memory_order_relaxed);
    return forced > 0 ? forced : defaultThreadCount();
}

void
setThreadCount(unsigned n)
{
    if (n > kMaxThreads)
        HETARCH_FATAL("thread count ", n, " exceeds the cap of ",
                      kMaxThreads);
    gOverride.store(n, std::memory_order_relaxed);
}

bool
inParallelRegion()
{
    return tlInParallelRegion;
}

void
parallelFor(std::size_t n, const std::function<void(std::size_t)>& fn)
{
    if (n == 0)
        return;
    // The task partition is scheduling-independent, so these counts
    // are bit-identical for any worker count (serial path included).
    cParallelForCalls.add();
    cTasks.add(n);
    const unsigned workers = threadCount();
    // Serial fast path: one worker, a single task, or a nested call
    // (the outer loop already owns the pool).  Runs inline in task
    // order; by the determinism rules this is bit-identical to the
    // parallel path.
    if (workers <= 1 || n == 1 || tlInParallelRegion) {
        const bool outermost = !tlInParallelRegion;
        tlInParallelRegion = true;
        try {
            for (std::size_t i = 0; i < n; ++i) {
                obs::ScopedTimer timer(hTaskNs);
                fn(i);
            }
        } catch (...) {
            if (outermost)
                tlInParallelRegion = false;
            throw;
        }
        if (outermost)
            tlInParallelRegion = false;
        return;
    }
    Pool::instance().run(n, fn, workers);
}

void
parallelInvoke(std::initializer_list<std::function<void()>> tasks)
{
    const auto* begin = tasks.begin();
    parallelFor(tasks.size(),
                [&](std::size_t i) { (*(begin + i))(); });
}

void
parallelInvoke(const std::vector<std::function<void()>>& tasks)
{
    parallelFor(tasks.size(), [&](std::size_t i) { tasks[i](); });
}

} // namespace exec
} // namespace hetarch
