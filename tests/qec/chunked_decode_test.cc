/**
 * @file
 * Regression tests for the chunked memory-experiment path: decoding in
 * 64-shot-aligned chunks (peak syndrome storage = one chunk) must count
 * exactly the failures a whole-buffer decode of the same samples
 * counts, and the shared DecoderCache must reuse shot-independent
 * setups instead of rebuilding them.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/rng.hh"
#include "exec/shot_scheduler.hh"
#include "qec/decoder_cache.hh"
#include "qec/memory_experiment.hh"
#include "qec/surface_circuit.hh"
#include "stab/circuit_stats.hh"

namespace hetarch {
namespace qec {
namespace {

/**
 * Reference path: sample every chunk's shots into one concatenated
 * buffer, then decode the whole buffer in a single pass.  Uses the same
 * per-chunk RNG streams the production path uses, so the sampled bits
 * are identical — only the decode granularity differs.
 */
std::size_t
wholeBufferFailures(const stab::Circuit& circuit, std::size_t shots,
                    DecoderKind kind, std::uint64_t base)
{
    const stab::FrameSimulator frame(circuit);
    const exec::ShotScheduler sched(shots);

    stab::DetectorSamples all;
    all.resize(0, circuit.numDetectors(), circuit.numObservables());
    for (std::size_t i = 0; i < sched.numChunks(); ++i) {
        const auto chunk = sched.chunk(i);
        Rng chunk_rng = exec::ShotScheduler::chunkRng(base, chunk.index);
        const auto part = frame.sampleDetectors(chunk.count, chunk_rng);
        EXPECT_EQ(part.shots, chunk.count);
        // Chunks are 64-aligned except the last, so packed rows
        // concatenate word-wise.
        all.append(part);
    }
    EXPECT_EQ(all.shots, shots);

    const auto setup = DecoderSetup::build(circuit, kind);
    return countLogicalFailures(*setup, kind, all);
}

TEST(ChunkedDecode, MatchesWholeBufferOnSeededD3Experiment)
{
    qec::CircuitNoise noise;
    noise.p2 = 3e-3;
    const auto circuit = surfaceMemoryZ(3, 3, noise);

    // 1000 shots: several full 256-shot chunks plus a ragged tail, so
    // the test exercises both chunk shapes.
    const std::size_t shots = 1000;
    const std::uint64_t seed = 2024;

    for (auto kind : {DecoderKind::UnionFind, DecoderKind::GreedyDem}) {
        // The production (chunked) path.
        Rng rng(seed);
        const auto result =
            runMemoryExperiment(circuit, shots, 3, kind, rng);

        // The reference path replays the experiment's base-stream draw.
        Rng replay(seed);
        const std::uint64_t base = replay();
        const auto reference =
            wholeBufferFailures(circuit, shots, kind, base);

        EXPECT_EQ(result.failures, reference)
            << "decoder kind " << static_cast<int>(kind);
        EXPECT_EQ(result.shots, shots);
        EXPECT_GT(result.failures, 0u);
    }
}

TEST(ChunkedDecode, PeakBufferIsOneChunkNotTheExperiment)
{
    // Structural guarantee behind the memory cap: a 1000-shot budget is
    // split into several chunks, each at most kDefaultChunkShots, so
    // the chunked path never materializes shots x detectors at once.
    const exec::ShotScheduler sched(1000);
    EXPECT_GT(sched.numChunks(), 1u);
    for (std::size_t i = 0; i < sched.numChunks(); ++i)
        EXPECT_LE(sched.chunk(i).count,
                  exec::ShotScheduler::kDefaultChunkShots);
}

TEST(DecoderCache, ReusesSetupsAcrossRepeatedRuns)
{
    qec::CircuitNoise noise;
    noise.p2 = 1e-3;
    const auto circuit = surfaceMemoryZ(3, 2, noise);

    auto& cache = DecoderCache::instance();
    cache.clear();
    const auto first =
        cache.get(circuit, DecoderKind::UnionFind);
    const std::uint64_t hits_before = cache.hits();
    const auto second =
        cache.get(circuit, DecoderKind::UnionFind);
    EXPECT_EQ(second.get(), first.get());
    EXPECT_EQ(cache.hits(), hits_before + 1);
    EXPECT_EQ(cache.size(), 1u);

    // A different decoder kind is a different cache entry.
    const auto greedy = cache.get(circuit, DecoderKind::GreedyDem);
    EXPECT_NE(greedy.get(), first.get());
    EXPECT_EQ(cache.size(), 2u);

    // A different circuit is a different entry too.
    qec::CircuitNoise other = noise;
    other.p2 = 2e-3;
    cache.get(surfaceMemoryZ(3, 2, other), DecoderKind::UnionFind);
    EXPECT_EQ(cache.size(), 3u);
}

TEST(DecoderCache, HashDistinguishesCircuits)
{
    qec::CircuitNoise noise;
    noise.p2 = 1e-3;
    const auto a = surfaceMemoryZ(3, 2, noise);
    const auto b = surfaceMemoryZ(3, 3, noise);
    noise.p2 = 2e-3;
    const auto c = surfaceMemoryZ(3, 2, noise);

    EXPECT_EQ(stab::hashCircuit(a),
              stab::hashCircuit(surfaceMemoryZ(3, 2, [] {
                  qec::CircuitNoise n;
                  n.p2 = 1e-3;
                  return n;
              }())));
    EXPECT_NE(stab::hashCircuit(a), stab::hashCircuit(b));
    EXPECT_NE(stab::hashCircuit(a), stab::hashCircuit(c));
}

} // namespace
} // namespace qec
} // namespace hetarch
