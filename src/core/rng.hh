/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic components of HetArch draw from an explicitly seeded
 * Rng so that every experiment is reproducible.  The generator is
 * xoshiro256** (Blackman & Vigna), which is fast, has a 2^256-1 period,
 * and passes BigCrush.
 */

#pragma once

#include <cstdint>

#include "core/logging.hh"

namespace hetarch {

/**
 * xoshiro256** pseudo-random generator with convenience distributions.
 *
 * Satisfies the UniformRandomBitGenerator concept so it can also be
 * plugged into <random> distributions if needed.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Seed via SplitMix64 expansion of a single 64-bit seed. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ull; }

    /** Next raw 64-bit draw. */
    result_type operator()() { return next(); }

    /** Uniform in [0, 1): the 53 high bits of one draw. */
    double uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform integer in [0, bound) using Lemire's rejection method. */
    std::uint64_t uniformInt(std::uint64_t bound)
    {
        HETARCH_ASSERT(bound > 0, "uniformInt bound must be positive");
        // Lemire's multiply-shift with rejection to remove modulo bias.
        std::uint64_t x = next();
        __uint128_t m = static_cast<__uint128_t>(x) * bound;
        auto low = static_cast<std::uint64_t>(m);
        if (low < bound) {
            const std::uint64_t threshold = -bound % bound;
            while (low < threshold) {
                x = next();
                m = static_cast<__uint128_t>(x) * bound;
                low = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Bernoulli trial with success probability p. */
    bool bernoulli(double p);

    /** Exponentially distributed with given rate (events per unit time). */
    double exponential(double rate);

    /** Standard normal via Box-Muller. */
    double normal();

    /**
     * 64-bit words drawn since construction.  A deterministic work
     * count: callers difference it around a computation to report how
     * much randomness that computation consumed.
     */
    std::uint64_t draws() const { return nDraws; }

    /**
     * Split off an independent child generator.  Used to give each
     * Monte-Carlo shard its own stream without correlation.
     */
    Rng split();

    /**
     * Stateless child-stream derivation: the seed of the
     * @p stream-th independent generator of an experiment seeded with
     * @p seed, computed by two SplitMix64 rounds over the (seed,
     * stream) pair.  Unlike split(), this does not advance any
     * generator, so shards of a partitioned computation can derive
     * their streams concurrently and in any order — the foundation of
     * the exec engine's determinism contract (results independent of
     * thread count).
     */
    static std::uint64_t deriveStream(std::uint64_t seed,
                                      std::uint64_t stream);

  private:
    static std::uint64_t rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    /**
     * One xoshiro256** step.  The draw paths are inline so a local
     * copy of the generator can stay in registers through a hot loop:
     * the frame sampler's noise resolution draws once per noise op per
     * 64 shots.
     */
    std::uint64_t next()
    {
        ++nDraws;
        const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
        const std::uint64_t t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);
        return result;
    }

    std::uint64_t s[4];
    std::uint64_t nDraws = 0;
    bool haveCachedNormal = false;
    double cachedNormal = 0.0;
};

} // namespace hetarch
