/**
 * @file
 * Pins the shot-batched decode pipeline:
 *
 *   - UnionFindDecoder::decodeBatch and DemDecoder::decodeBatch are
 *     output-identical to per-shot decodeSparse on random syndromes at
 *     four densities, including duplicate and empty fired lists;
 *   - SlidingWindowDecoder::decodeBuffer reproduces the historical
 *     word-by-word beginBatch/pushBufferColumn/finishBatch loop
 *     exactly (failures, trivial shots, weight records);
 *   - runMemoryExperiment failures and every deterministic counter are
 *     invariant across workers {1, 2, 8} (sampler widths are pinned in
 *     tests/stab/frame_block_test.cc).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.hh"
#include "exec/thread_pool.hh"
#include "obs/obs.hh"
#include "qec/decoder_cache.hh"
#include "qec/memory_experiment.hh"
#include "qec/sliding_window.hh"
#include "qec/surface_circuit.hh"
#include "stab/frame.hh"

namespace hetarch {
namespace qec {
namespace {

struct ThreadCountGuard
{
    explicit ThreadCountGuard(unsigned n) { exec::setThreadCount(n); }
    ~ThreadCountGuard() { exec::setThreadCount(0); }
};

/** Random fired-node lists at a given per-node fire probability. */
std::vector<std::vector<std::uint32_t>>
randomSyndromes(std::size_t n_nodes, std::size_t count, int permille,
                Rng& rng)
{
    std::vector<std::vector<std::uint32_t>> lists(count);
    for (auto& fired : lists)
        for (std::uint32_t v = 0; v < n_nodes; ++v)
            if (rng() % 1000 < static_cast<std::uint64_t>(permille))
                fired.push_back(v);
    return lists;
}

TEST(BatchDecode, UnionFindBatchMatchesPerShotAtFourDensities)
{
    CircuitNoise noise;
    noise.p2 = 3e-3;
    const auto circuit = surfaceMemoryZ(5, 3, noise);
    const auto setup = DecoderSetup::build(circuit, DecoderKind::UnionFind);

    UnionFindDecoder batch_dec(setup->graphZ);
    UnionFindDecoder ref_dec(setup->graphZ);

    Rng rng(515);
    for (const int permille : {5, 30, 150, 500}) {
        auto lists = randomSyndromes(setup->graphZ.numNodes(), 64,
                                     permille, rng);
        // Force duplicate and empty lists into every density so the
        // dedup reuse and the weight-0 fast path are exercised.
        lists[7].clear();
        lists[23].clear();
        lists[40] = lists[3];
        lists[41] = lists[3];

        std::vector<std::uint32_t> out(lists.size(), 0xdeadbeefu);
        const std::size_t hits = batch_dec.decodeBatch(lists, out);
        for (std::size_t s = 0; s < lists.size(); ++s)
            EXPECT_EQ(out[s], ref_dec.decodeSparse(lists[s]))
                << "permille=" << permille << " shot=" << s;
        // The two planted copies of a non-empty list must be reused;
        // empty lists take the weight-0 path and never count as hits.
        if (!lists[3].empty()) {
            EXPECT_GE(hits, 2u) << "permille=" << permille;
        }
    }
}

TEST(BatchDecode, GreedyBatchMatchesPerShotAtFourDensities)
{
    CircuitNoise noise;
    noise.p2 = 3e-3;
    const auto circuit = surfaceMemoryZ(3, 3, noise);
    const auto setup = DecoderSetup::build(circuit, DecoderKind::GreedyDem);

    Rng rng(616);
    std::vector<std::uint32_t> residual, next, order;
    for (const int permille : {5, 30, 150, 500}) {
        auto lists = randomSyndromes(circuit.numDetectors(), 48,
                                     permille, rng);
        lists[0].clear();
        lists[30] = lists[11];

        std::vector<std::uint32_t> out(lists.size(), 0xdeadbeefu);
        const std::size_t hits = setup->greedy->decodeBatch(
            lists, out, residual, next, order);
        (void)hits;
        for (std::size_t s = 0; s < lists.size(); ++s)
            EXPECT_EQ(out[s], setup->greedy->decodeSparse(lists[s]))
                << "permille=" << permille << " shot=" << s;
    }
}

TEST(BatchDecode, DecodeBufferMatchesHistoricalWordLoop)
{
    CircuitNoise noise;
    noise.p2 = 8e-3;
    const auto circuit = surfaceMemoryZ(5, 3, noise);

    const stab::FrameSimulator frame(circuit);
    Rng rng(2468);
    // 700 shots: two full 256-shot blocks, then a partial block whose
    // final word is also partial.
    const auto samples = frame.sampleDetectors(700, rng);

    for (auto kind : {DecoderKind::UnionFind, DecoderKind::GreedyDem}) {
        const auto setup = DecoderSetup::build(circuit, kind);

        SlidingWindowDecoder historical(*setup, kind);
        std::size_t ref_failures = 0;
        for (std::size_t w = 0; w < samples.numWords; ++w) {
            const std::size_t lanes =
                std::min<std::size_t>(64, samples.shots - w * 64);
            historical.beginBatch(lanes);
            historical.pushBufferColumn(samples, w);
            ref_failures += historical.finishBatch();
        }

        SlidingWindowDecoder batched(*setup, kind);
        const std::size_t failures = batched.decodeBuffer(samples);

        EXPECT_EQ(failures, ref_failures)
            << "kind " << static_cast<int>(kind);
        const auto& got = batched.stats();
        const auto& want = historical.stats();
        EXPECT_EQ(got.failures, want.failures);
        EXPECT_EQ(got.shots, want.shots);
        EXPECT_EQ(got.trivialShots, want.trivialShots);
        EXPECT_EQ(got.syndromeWeights.count(),
                  want.syndromeWeights.count());
        EXPECT_EQ(got.syndromeWeights.sum(), want.syndromeWeights.sum());
        // Block accounting is only produced by the batched entry.
        EXPECT_EQ(got.batchShots, samples.shots);
        EXPECT_EQ(got.batchBlocks,
                  (samples.numWords +
                   SlidingWindowDecoder::kDecodeBlockWords - 1) /
                      SlidingWindowDecoder::kDecodeBlockWords);
        EXPECT_GT(ref_failures, 0u);
    }
}

TEST(BatchDecode, MemoryExperimentInvariantAcrossWorkers)
{
    CircuitNoise noise;
    noise.p2 = 5e-3;
    const auto circuit = surfaceMemoryZ(3, 3, noise);

    struct RunState
    {
        std::size_t failures = 0;
        std::vector<std::pair<std::string, std::uint64_t>> counters;
    };
    const auto run = [&](unsigned workers) {
        ThreadCountGuard guard(workers);
        DecoderCache::instance().clear();
        obs::Registry::instance().reset();
        Rng rng(1212);
        RunState state;
        state.failures =
            runMemoryExperiment(circuit, 900, 3, DecoderKind::UnionFind,
                                rng)
                .failures;
        state.counters = obs::Registry::instance().snapshot().counters;
        return state;
    };

    const auto reference = run(1);
    EXPECT_GT(reference.failures, 0u);
    EXPECT_FALSE(reference.counters.empty());
    for (const unsigned workers : {1u, 2u, 8u}) {
        const auto got = run(workers);
        EXPECT_EQ(got.failures, reference.failures)
            << "workers=" << workers;
        ASSERT_EQ(got.counters.size(), reference.counters.size())
            << "workers=" << workers;
        for (std::size_t i = 0; i < got.counters.size(); ++i) {
            EXPECT_EQ(got.counters[i].first, reference.counters[i].first)
                << "workers=" << workers;
            EXPECT_EQ(got.counters[i].second, reference.counters[i].second)
                << got.counters[i].first << " workers=" << workers;
        }
    }
}

} // namespace
} // namespace qec
} // namespace hetarch
