/**
 * @file
 * Pins the streaming syndrome engine's contracts:
 *
 *   - with a window spanning the whole buffer, the streaming
 *     experiment reproduces runMemoryExperiment bit-for-bit (same
 *     seed, same failures) across surface distances at the fig. 6
 *     noise point;
 *   - every streaming result field and every counter is
 *     thread-count invariant (each a sum over fixed chunks), also when
 *     the call is made from inside a pool task;
 *   - sliding-window mode bounds peak syndrome storage by the window,
 *     independent of the total round count, while still correcting
 *     errors at low noise in memory-Z and memory-X.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.hh"
#include "core/units.hh"
#include "exec/thread_pool.hh"
#include "obs/obs.hh"
#include "qec/decoder_cache.hh"
#include "qec/memory_experiment.hh"
#include "qec/stream_experiment.hh"
#include "qec/surface_circuit.hh"

namespace hetarch {
namespace qec {
namespace {

/** The fig. 6 noise point (p2 = 1e-2, p1 = 1e-3, T1 = T2 = 0.1 ms). */
CircuitNoise
fig6Noise()
{
    CircuitNoise noise;
    noise.p2 = 1e-2;
    noise.p1 = 1e-3;
    noise.dataT1 = noise.dataT2 = 0.1 * units::ms;
    noise.ancT1 = noise.ancT2 = 0.1 * units::ms;
    return noise;
}

struct ThreadCountGuard
{
    explicit ThreadCountGuard(unsigned n) { exec::setThreadCount(n); }
    ~ThreadCountGuard() { exec::setThreadCount(0); }
};

TEST(StreamDecode, WholeBufferWindowMatchesBatchExperimentExactly)
{
    const std::uint64_t seed = 20260808;
    for (std::size_t d : {std::size_t{3}, std::size_t{5}, std::size_t{7}}) {
        const auto circuit = surfaceMemoryZ(d, d, fig6Noise());
        const std::size_t shots = 600; // full chunks + a ragged tail

        Rng batch_rng(seed);
        const auto batch = runMemoryExperiment(circuit, shots, d,
                                               DecoderKind::UnionFind,
                                               batch_rng);

        // Default config: window spans the whole buffer.
        Rng stream_rng(seed);
        const auto stream = runStreamingMemoryExperiment(
            circuit, shots, d, DecoderKind::UnionFind, stream_rng);

        EXPECT_EQ(stream.memory.failures, batch.failures) << "d=" << d;
        EXPECT_EQ(stream.memory.shots, shots);
        EXPECT_EQ(stream.windowRounds, stream.peakStoredRounds);
        EXPECT_GT(batch.failures, 0u) << "d=" << d;

        // An explicit window >= rounds routes to the same mode.
        StreamConfig config;
        config.windowRounds = circuit.numDetectors(); // way past rounds
        Rng big_rng(seed);
        const auto big = runStreamingMemoryExperiment(
            circuit, shots, d, DecoderKind::UnionFind, big_rng, config);
        EXPECT_EQ(big.memory.failures, batch.failures) << "d=" << d;
        EXPECT_EQ(big.windows, 0u); // whole-buffer mode has no windows
    }
}

TEST(StreamDecode, GreedyDecoderSupportedInWholeBufferMode)
{
    const auto circuit = surfaceMemoryZ(3, 3, fig6Noise());
    const std::uint64_t seed = 99;
    Rng batch_rng(seed);
    const auto batch = runMemoryExperiment(circuit, 500, 3,
                                           DecoderKind::GreedyDem,
                                           batch_rng);
    Rng stream_rng(seed);
    const auto stream = runStreamingMemoryExperiment(
        circuit, 500, 3, DecoderKind::GreedyDem, stream_rng);
    EXPECT_EQ(stream.memory.failures, batch.failures);
}

TEST(StreamDecode, StreamingCountersAndFailuresAreThreadInvariant)
{
    const auto circuit = surfaceMemoryZ(5, 15, fig6Noise());
    // 1,000 shots in 128-shot chunks are 7 full chunks and a 104-shot
    // tail, run in both kernel modes.
    const struct
    {
        std::size_t shots;
        StreamConfig config;
    } cases[] = {
        {500, {.windowRounds = 5, .commitRounds = 2}},
        {1000, {.windowRounds = 5, .commitRounds = 2, .chunkShots = 128}},
        {1000, {.chunkShots = 128}},
    };

    struct RunState
    {
        StreamingResult result;
        std::vector<std::pair<std::string, std::uint64_t>> counters;
        obs::Snapshot::HistogramEntry syndromeWeight;
    };
    const auto call = [&](std::size_t shots, const StreamConfig& config) {
        Rng rng(777);
        return runStreamingMemoryExperiment(
            circuit, shots, 15, DecoderKind::UnionFind, rng, config);
    };
    const auto run = [&](unsigned workers, std::size_t shots,
                         const StreamConfig& config) {
        ThreadCountGuard guard(workers);
        DecoderCache::instance().clear();
        obs::Registry::instance().reset();
        RunState state;
        state.result = call(shots, config);
        const auto snap = obs::Registry::instance().snapshot();
        state.counters = snap.counters;
        for (const auto& h : snap.histograms)
            if (h.name == "qec.syndrome_weight")
                state.syndromeWeight = h;
        return state;
    };

    for (const auto& c : cases) {
        const auto reference = run(1, c.shots, c.config);
        EXPECT_EQ(reference.result.memory.shots, c.shots);
        EXPECT_GT(reference.result.memory.failures, 0u);
        EXPECT_FALSE(reference.counters.empty());
        for (unsigned workers : {2u, 8u}) {
            const auto got = run(workers, c.shots, c.config);
            EXPECT_TRUE(got.result == reference.result)
                << workers << " workers, " << c.shots << " shots";
            ASSERT_EQ(got.counters.size(), reference.counters.size());
            for (std::size_t i = 0; i < reference.counters.size(); ++i) {
                EXPECT_EQ(got.counters[i].first,
                          reference.counters[i].first);
                EXPECT_EQ(got.counters[i].second,
                          reference.counters[i].second)
                    << got.counters[i].first << " at " << workers
                    << " workers, " << c.shots << " shots";
            }
            EXPECT_EQ(got.syndromeWeight.count,
                      reference.syndromeWeight.count);
            EXPECT_EQ(got.syndromeWeight.sum, reference.syndromeWeight.sum);
            EXPECT_EQ(got.syndromeWeight.buckets,
                      reference.syndromeWeight.buckets);
        }

        // Called from inside a pool task, as the job service's batch
        // dispatch does: the chunk loop runs inline on that worker and
        // must return the top-level result.
        ThreadCountGuard guard(4);
        StreamingResult nested[2];
        exec::parallelFor(2, [&](std::size_t i) {
            nested[i] = call(c.shots, c.config);
        });
        for (const auto& got : nested) {
            EXPECT_TRUE(got == reference.result)
                << "nested call, " << c.shots << " shots";
        }
    }
}

TEST(StreamDecode, WindowBoundsPeakStorageIndependentOfRounds)
{
    StreamConfig config;
    config.windowRounds = 7;
    config.commitRounds = 3;

    std::size_t prev_peak = 0;
    for (std::size_t rounds : {std::size_t{14}, std::size_t{28}}) {
        const auto circuit = surfaceMemoryZ(7, rounds, fig6Noise());
        Rng rng(31337);
        const auto result = runStreamingMemoryExperiment(
            circuit, 128, rounds, DecoderKind::UnionFind, rng, config);

        EXPECT_EQ(result.peakStoredRounds, config.windowRounds)
            << rounds << " rounds";
        if (prev_peak) {
            EXPECT_EQ(result.peakStoredRounds, prev_peak);
        }
        prev_peak = result.peakStoredRounds;

        // Window decode points per batch: one per commit step before
        // the final round, plus the final commit-all window.
        std::size_t non_final = 0;
        for (std::size_t t = config.windowRounds; t < rounds;
             t += config.commitRounds)
            ++non_final;
        const std::size_t batches = (128 + 63) / 64;
        EXPECT_EQ(result.windows, batches * (non_final + 1));
        EXPECT_EQ(result.committedRounds, batches * rounds);
        EXPECT_EQ(result.blocks, batches * rounds);
    }
}

TEST(StreamDecode, SlidingWindowStillCorrectsAtLowNoise)
{
    // At p2 = 1e-3 a d=5 code corrects essentially every shot; the
    // windowed decoder must not fall off that cliff (a broken commit
    // rule would push the failure rate toward 50%).  Memory-X covers
    // windowed decoding on graphX, the carrying graph there.
    CircuitNoise noise;
    noise.p2 = 1e-3;
    noise.p1 = 1e-4;
    const std::size_t rounds = 12;
    for (const auto basis : {MemoryBasis::Z, MemoryBasis::X}) {
        SCOPED_TRACE(basis == MemoryBasis::Z ? "memory-Z" : "memory-X");
        const auto circuit = surfaceMemory(5, rounds, noise, basis);

        StreamConfig config;
        config.windowRounds = 4;
        config.commitRounds = 2;
        Rng rng(4242);
        const auto result = runStreamingMemoryExperiment(
            circuit, 1024, rounds, DecoderKind::UnionFind, rng, config);
        EXPECT_LT(result.memory.perShot(), 0.02);
        EXPECT_GT(result.trivialShots, 0u);
        EXPECT_GT(result.laneDecodes, 0u);
    }
}

} // namespace
} // namespace qec
} // namespace hetarch
