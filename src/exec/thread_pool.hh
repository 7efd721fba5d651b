/**
 * @file
 * Deterministic parallel execution engine.
 *
 * All Monte-Carlo and sweep entry points in HetArch run on this one
 * engine instead of private shot loops.  The design goal is strict
 * determinism: a computation partitioned over N tasks must produce
 * bit-identical results for ANY worker count, including 1.  That is
 * achieved by three rules:
 *
 *   1. the task partition depends only on the problem size, never on
 *      the thread count (see ShotScheduler);
 *   2. every task derives its own random stream from (seed, taskIndex)
 *      (see Rng::deriveStream), so no task ever reads another task's
 *      generator state;
 *   3. task results land in pre-sized per-task slots and are reduced
 *      in task order on the calling thread.
 *
 * The pool is work-stealing-free: idle workers pull the next task
 * index from a single atomic counter (chunk-sharded dispatch).  Which
 * worker runs which task is non-deterministic, but by rules 1-3 it
 * cannot affect results.
 *
 * The worker count comes from, in priority order: setThreadCount(),
 * the HETARCH_THREADS environment variable, then
 * std::thread::hardware_concurrency().  A count of 1 bypasses the pool
 * entirely and runs inline on the calling thread.  Explicit requests
 * are capped at kMaxThreads.
 */

#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace hetarch {
namespace exec {

/**
 * Most workers an explicit request may ask for: setThreadCount() is
 * fatal above it and a larger HETARCH_THREADS is ignored, so a typo or
 * a wrapped negative count cannot start billions of threads.  The
 * hardware default is not capped.
 */
inline constexpr unsigned kMaxThreads = 1024;

/**
 * Effective worker count for parallelFor: the setThreadCount override
 * if set, else HETARCH_THREADS, else hardware concurrency (min 1).
 */
unsigned threadCount();

/**
 * Programmatic override of the worker count (0 restores the
 * environment/hardware default; above kMaxThreads is fatal).  Takes
 * effect on the next parallelFor; existing pool threads are retired
 * lazily.
 */
void setThreadCount(unsigned n);

/**
 * Invoke fn(i) for every i in [0, n), distributing indices over the
 * worker pool.  Blocks until every invocation returned.
 *
 * fn must be safe to call concurrently for distinct i.  Nested calls
 * (fn itself calling parallelFor) execute the inner loop serially on
 * the worker, so callees can parallelize unconditionally without risk
 * of deadlock or oversubscription.
 *
 * Exceptions thrown by fn are captured and the first one (in task
 * order) is rethrown on the calling thread after all tasks finish.
 */
void parallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

/**
 * Run a fixed set of heterogeneous tasks concurrently (convenience
 * wrapper over parallelFor).  Same thread-safety and nesting rules.
 */
void parallelInvoke(std::initializer_list<std::function<void()>> tasks);

/**
 * parallelInvoke over a runtime-sized task set (the job service's
 * batch dispatch shape).  Same thread-safety and nesting rules.
 */
void parallelInvoke(const std::vector<std::function<void()>>& tasks);

/** True while the current thread is executing inside a parallelFor. */
bool inParallelRegion();

} // namespace exec
} // namespace hetarch
