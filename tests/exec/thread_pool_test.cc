/**
 * @file
 * Tests for the exec engine's thread pool: coverage, nesting,
 * configuration, and exception propagation.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/logging.hh"
#include "core/rng.hh"
#include "exec/thread_pool.hh"

namespace hetarch {
namespace exec {
namespace {

/** Restores the default worker count when a test exits. */
struct ThreadCountGuard
{
    explicit ThreadCountGuard(unsigned n) { setThreadCount(n); }
    ~ThreadCountGuard() { setThreadCount(0); }
};

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    for (unsigned workers : {1u, 2u, 8u}) {
        ThreadCountGuard guard(workers);
        constexpr std::size_t n = 1000;
        std::vector<std::atomic<int>> counts(n);
        parallelFor(n, [&](std::size_t i) {
            counts[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(counts[i].load(), 1) << "index " << i;
    }
}

TEST(ParallelFor, ZeroAndOneTaskWork)
{
    ThreadCountGuard guard(4);
    parallelFor(0, [](std::size_t) { FAIL() << "no task expected"; });
    int calls = 0;
    parallelFor(1, [&](std::size_t i) {
        EXPECT_EQ(i, 0u);
        ++calls;
    });
    EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, NestedCallsRunSerialInline)
{
    ThreadCountGuard guard(4);
    std::atomic<int> inner_total{0};
    parallelFor(8, [&](std::size_t) {
        EXPECT_TRUE(inParallelRegion());
        // The nested loop must execute inline (and in order) on this
        // worker rather than re-entering the pool.
        std::size_t expected = 0;
        parallelFor(16, [&](std::size_t j) {
            EXPECT_EQ(j, expected++);
            inner_total.fetch_add(1, std::memory_order_relaxed);
        });
        EXPECT_EQ(expected, 16u);
    });
    EXPECT_FALSE(inParallelRegion());
    EXPECT_EQ(inner_total.load(), 8 * 16);
}

TEST(ParallelFor, SetThreadCountOverridesEnvironment)
{
    ThreadCountGuard guard(3);
    EXPECT_EQ(threadCount(), 3u);
    setThreadCount(0);
    EXPECT_GE(threadCount(), 1u);
}

TEST(ParallelFor, ThreadCountRequestsAboveTheCapAreRefused)
{
    // No parallelFor runs here, so no pool thread is started.
    {
        ScopedFatalCapture capture;
        EXPECT_THROW(setThreadCount(kMaxThreads + 1), FatalError);
        // --threads=-1 once reached the pool as 2^32 - 1.
        EXPECT_THROW(setThreadCount(4294967295u), FatalError);
    }
    EXPECT_NE(threadCount(), 4294967295u); // the refusal stored nothing
    {
        ThreadCountGuard guard(kMaxThreads);
        EXPECT_EQ(threadCount(), kMaxThreads);
    }

    // An oversized HETARCH_THREADS is ignored like a non-positive one.
    const char* saved = std::getenv("HETARCH_THREADS");
    const std::string previous = saved ? saved : "";
    ASSERT_EQ(setenv("HETARCH_THREADS", "100000", 1), 0);
    EXPECT_NE(threadCount(), 100000u);
    ASSERT_EQ(setenv("HETARCH_THREADS", "16", 1), 0);
    EXPECT_EQ(threadCount(), 16u);
    if (saved)
        setenv("HETARCH_THREADS", previous.c_str(), 1);
    else
        unsetenv("HETARCH_THREADS");
}

TEST(ParallelFor, FirstExceptionInTaskOrderPropagates)
{
    for (unsigned workers : {1u, 4u}) {
        ThreadCountGuard guard(workers);
        try {
            parallelFor(64, [&](std::size_t i) {
                if (i % 2 == 1)
                    throw std::runtime_error("task " +
                                             std::to_string(i));
            });
            FAIL() << "expected an exception";
        } catch (const std::runtime_error& e) {
            if (workers == 1)
                EXPECT_STREQ(e.what(), "task 1");
            else
                EXPECT_NE(std::string(e.what()).find("task"),
                          std::string::npos);
        }
    }
}

TEST(ParallelInvoke, RunsEveryTask)
{
    ThreadCountGuard guard(4);
    int a = 0, b = 0, c = 0;
    parallelInvoke({
        [&] { a = 1; },
        [&] { b = 2; },
        [&] { c = 3; },
    });
    EXPECT_EQ(a + b + c, 6);
}

TEST(DeriveStream, IsStatelessAndWellSeparated)
{
    // Stateless: same inputs, same stream.
    EXPECT_EQ(Rng::deriveStream(42, 7), Rng::deriveStream(42, 7));
    // Distinct streams for nearby indices and nearby seeds.
    EXPECT_NE(Rng::deriveStream(42, 0), Rng::deriveStream(42, 1));
    EXPECT_NE(Rng::deriveStream(42, 0), Rng::deriveStream(43, 0));
    // A derived stream differs from the parent seed's own stream.
    EXPECT_NE(Rng::deriveStream(42, 0), 42u);

    // Generators from adjacent streams should look uncorrelated: the
    // first draws must all differ.
    Rng a(Rng::deriveStream(1, 0));
    Rng b(Rng::deriveStream(1, 1));
    Rng c(Rng::deriveStream(2, 0));
    const auto da = a(), db = b(), dc = c();
    EXPECT_NE(da, db);
    EXPECT_NE(da, dc);
    EXPECT_NE(db, dc);
}

} // namespace
} // namespace exec
} // namespace hetarch
