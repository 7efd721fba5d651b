/**
 * @file
 * A content-keyed cache that builds each shared, immutable result once.
 *
 * Keys are fixed-size tuples of 64-bit words: a content hash plus
 * whatever else tells two results apart (sizes, options, a decoder
 * kind).  Entries hold shared futures, not finished values: the first
 * requester of a key claims its build and runs it outside the lock,
 * and every concurrent requester waits on the same future, so each key
 * is built exactly once while it stays cached.  Builds are
 * deterministic, so a hit returns what a fresh build would.
 *
 * A build that throws leaves nothing behind: its key is erased before
 * the exception reaches the claimer and every waiter, so a later
 * request builds afresh (for example once memory has freed up after a
 * std::bad_alloc) instead of finding a broken future.
 *
 * A miss that would exceed kCapacity entries evicts wholesale; sweeps
 * touch each shape in bursts.  The telemetry hook sees every lookup's
 * outcome, decided under the lock and reported before any wait or
 * build, so hit/miss counts depend only on the sequence of keys, not
 * on which thread wins a race.
 */

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace hetarch {

template <typename Value, std::size_t KeyWords>
class BuildOnceCache
{
  public:
    using Key = std::array<std::uint64_t, KeyWords>;
    using Ptr = std::shared_ptr<const Value>;
    using Future = std::shared_future<Ptr>;
    /**
     * Called once per get(): whether the key was cached, and how many
     * entries a miss evicted to make room (0 on a hit).
     */
    using Telemetry = std::function<void(bool hit, std::size_t evicted)>;

    /** Whole-cache eviction threshold. */
    static constexpr std::size_t kCapacity = 128;

    explicit BuildOnceCache(Telemetry telemetry)
        : telemetry(std::move(telemetry))
    {
    }

    /**
     * The cached result for @p key, or the result of @p build(), which
     * runs on this thread when it claims the key.  Rethrows a failed
     * build's exception, in the claimer and in every waiter.
     */
    template <typename Build>
    Ptr get(const Key& key, Build&& build)
    {
        std::promise<Ptr> promise;
        Future future;
        std::uint64_t ticket = 0;
        std::size_t evicted = 0;
        {
            std::lock_guard<std::mutex> lock(mutex);
            const auto it = entries.find(key);
            if (it != entries.end()) {
                future = it->second.future;
            } else {
                if (entries.size() >= kCapacity) {
                    evicted = entries.size();
                    entries.clear();
                }
                ticket = ++nextTicket;
                entries.emplace(
                    key, Entry{promise.get_future().share(), ticket});
            }
        }
        telemetry(future.valid(), evicted);
        if (future.valid())
            return future.get();
        try {
            Ptr value = build();
            promise.set_value(value);
            return value;
        } catch (...) {
            {
                // Erase only our own claim: clear() or an eviction may
                // have let another thread claim the key since.
                std::lock_guard<std::mutex> lock(mutex);
                const auto it = entries.find(key);
                if (it != entries.end() && it->second.ticket == ticket)
                    entries.erase(it);
            }
            promise.set_exception(std::current_exception());
            throw;
        }
    }

    /** Drop every entry (in-flight builds still finish for their callers). */
    void clear()
    {
        std::lock_guard<std::mutex> lock(mutex);
        entries.clear();
    }

    /** Number of cached entries, finished or in flight. */
    std::size_t size() const
    {
        std::lock_guard<std::mutex> lock(mutex);
        return entries.size();
    }

  private:
    struct Entry
    {
        Future future;
        std::uint64_t ticket = 0; ///< which claim built it
    };

    struct KeyHash
    {
        std::size_t operator()(const Key& key) const
        {
            std::uint64_t h = 0;
            for (const std::uint64_t word : key)
                h ^= word + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
            return static_cast<std::size_t>(h);
        }
    };

    const Telemetry telemetry;
    mutable std::mutex mutex;
    std::unordered_map<Key, Entry, KeyHash> entries;
    std::uint64_t nextTicket = 0;
};

} // namespace hetarch
