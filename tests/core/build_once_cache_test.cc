/**
 * @file
 * BuildOnceCache: each key builds once while cached, capacity evicts
 * wholesale, and a build that throws leaves no entry behind — the
 * claimer and every concurrent waiter see the build's own exception,
 * and the next request builds afresh instead of finding a broken
 * future.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <new>
#include <stdexcept>
#include <thread>

#include "core/build_once_cache.hh"

namespace hetarch {
namespace {

using Cache = BuildOnceCache<int, 2>;

struct Tally
{
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t evicted = 0;

    Cache::Telemetry hook()
    {
        return [this](bool hit, std::size_t n) {
            (hit ? hits : misses) += 1;
            evicted += n;
        };
    }
};

TEST(BuildOnceCache, BuildsEachKeyOnceAndEvictsWholesale)
{
    Tally tally;
    Cache cache(tally.hook());
    int builds = 0;
    const auto build = [&](int v) {
        return [&builds, v] {
            ++builds;
            return std::make_shared<const int>(v);
        };
    };

    EXPECT_EQ(*cache.get({1, 1}, build(11)), 11);
    EXPECT_EQ(*cache.get({1, 1}, build(99)), 11); // hit: no rebuild
    EXPECT_EQ(*cache.get({2, 1}, build(21)), 21);
    EXPECT_EQ(builds, 2);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(tally.hits, 1u);
    EXPECT_EQ(tally.misses, 2u);

    // Fill to capacity; the next new key evicts every entry first.
    for (std::uint64_t k = 3; k <= Cache::kCapacity; ++k)
        cache.get({k, 1}, build(0));
    EXPECT_EQ(cache.size(), Cache::kCapacity);
    EXPECT_EQ(tally.evicted, 0u);
    EXPECT_EQ(*cache.get({Cache::kCapacity + 1, 1}, build(7)), 7);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(tally.evicted, Cache::kCapacity);
    EXPECT_EQ(tally.misses, Cache::kCapacity + 1);
    EXPECT_EQ(tally.hits, 1u);
    EXPECT_EQ(*cache.get({1, 1}, build(12)), 12); // evicted: rebuilt
}

TEST(BuildOnceCache, BuildThatThrowsOnceThenSucceedsIsNotPoisoned)
{
    Tally tally;
    Cache cache(tally.hook());
    int attempts = 0;
    const auto flaky = [&] {
        if (++attempts == 1)
            throw std::bad_alloc();
        return std::make_shared<const int>(7);
    };

    // The first build's own exception reaches the caller, not a
    // future_error, and no entry is left under the key.
    EXPECT_THROW(cache.get({5, 5}, flaky), std::bad_alloc);
    EXPECT_EQ(cache.size(), 0u);

    // The next request claims a fresh build, and later ones hit it.
    EXPECT_EQ(*cache.get({5, 5}, flaky), 7);
    EXPECT_EQ(*cache.get({5, 5}, flaky), 7);
    EXPECT_EQ(attempts, 2);
    EXPECT_EQ(tally.misses, 2u);
    EXPECT_EQ(tally.hits, 1u);
}

TEST(BuildOnceCache, ConcurrentWaitersSeeTheBuildException)
{
    std::atomic<bool> waiter_arrived{false};
    Cache cache([&](bool hit, std::size_t) {
        if (hit)
            waiter_arrived = true;
    });

    // The claimer's build holds the key until a second thread has
    // looked it up (a hit on the in-flight entry), then throws.
    std::thread claimer([&] {
        EXPECT_THROW(cache.get({9, 9},
                               [&]() -> Cache::Ptr {
                                   while (!waiter_arrived)
                                       std::this_thread::yield();
                                   throw std::runtime_error("build failed");
                               }),
                     std::runtime_error);
    });
    while (cache.size() == 0)
        std::this_thread::yield();
    EXPECT_THROW(cache.get({9, 9},
                           []() -> Cache::Ptr {
                               ADD_FAILURE() << "waiter must not build";
                               return nullptr;
                           }),
                 std::runtime_error);
    claimer.join();

    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(*cache.get({9, 9}, [] { return std::make_shared<const int>(3); }),
              3);
}

} // namespace
} // namespace hetarch
