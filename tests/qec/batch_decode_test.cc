/**
 * @file
 * Pins the whole-buffer decode routine:
 *
 *   - SlidingWindowDecoder::decodeBuffer counts exactly the failures,
 *     trivial shots and syndrome weights of a per-shot loop built from
 *     tests/support (unpacked fired lists, the dense union-find
 *     reference on both graphs, greedy decodeSparse), for both decoder
 *     kinds on memory-Z and memory-X circuits;
 *   - union-find decodes only the observable-carrying graph: its growth
 *     work equals one standalone decoder's on that graph, and every
 *     edge of the other graph flips no observable;
 *   - a circuit whose observable is flipped from both detector classes
 *     is refused by the union-find setup and decoded by the greedy one;
 *   - runMemoryExperiment failures and every deterministic counter,
 *     the union-find growth work included, are invariant across
 *     workers {1, 2, 8} (sampler widths are pinned in
 *     tests/stab/frame_block_test.cc).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/logging.hh"
#include "core/rng.hh"
#include "exec/thread_pool.hh"
#include "obs/obs.hh"
#include "qec/decoder_cache.hh"
#include "qec/memory_experiment.hh"
#include "qec/sliding_window.hh"
#include "qec/surface_circuit.hh"
#include "qec/union_find.hh"
#include "stab/frame.hh"
#include "support/packed_samples.hh"
#include "support/union_find_reference.hh"

namespace hetarch {
namespace qec {
namespace {

struct ThreadCountGuard
{
    explicit ThreadCountGuard(unsigned n) { exec::setThreadCount(n); }
    ~ThreadCountGuard() { exec::setThreadCount(0); }
};

TEST(BatchDecode, DecodeBufferMatchesHistoricalWordLoop)
{
    CircuitNoise noise;
    noise.p2 = 8e-3;
    // Memory-Z carries the observable on graphZ, memory-X on graphX.
    for (const auto basis : {MemoryBasis::Z, MemoryBasis::X}) {
        SCOPED_TRACE(basis == MemoryBasis::Z ? "memory-Z" : "memory-X");
        const auto circuit = surfaceMemory(5, 3, noise, basis);

        const stab::FrameSimulator frame(circuit);
        Rng rng(2468);
        // 700 shots: the last packed word is partial.
        const auto samples = frame.sampleDetectors(700, rng);
        const auto fired = firedDetectors(samples);

        for (auto kind : {DecoderKind::UnionFind, DecoderKind::GreedyDem}) {
            const auto setup = DecoderSetup::build(circuit, kind);

            // The per-shot reference count, one shot at a time in shot
            // order, sharing no loop with decodeBuffer.
            std::size_t ref_failures = 0, ref_trivial = 0, ref_weight = 0;
            std::vector<std::uint32_t> residual, next;
            for (std::size_t s = 0; s < samples.shots; ++s) {
                ref_weight += fired[s].size();
                ref_trivial += fired[s].empty();
                std::uint32_t predicted = 0;
                if (kind == DecoderKind::GreedyDem) {
                    predicted =
                        setup->greedy->decodeSparse(fired[s], residual, next);
                } else {
                    for (const auto* graph : {&setup->graphZ, &setup->graphX})
                        predicted ^= unionFindReference(
                            *graph, denseSyndrome(*graph, fired[s]));
                }
                std::uint32_t actual = 0;
                for (std::size_t k = 0; k < samples.numObservables; ++k)
                    actual |= static_cast<std::uint32_t>(obsBit(samples, s, k))
                              << k;
                ref_failures += predicted != actual;
            }

            SlidingWindowDecoder kernel(*setup, kind);
            const std::size_t failures = kernel.decodeBuffer(samples);

            EXPECT_EQ(failures, ref_failures)
                << "kind " << static_cast<int>(kind);
            const auto& got = kernel.stats();
            EXPECT_EQ(got.failures, ref_failures);
            EXPECT_EQ(got.shots, samples.shots);
            EXPECT_EQ(got.trivialShots, ref_trivial);
            EXPECT_EQ(got.syndromeWeights.count(), samples.shots);
            EXPECT_EQ(got.syndromeWeights.sum(), ref_weight);
            EXPECT_EQ(got.batchShots, samples.shots);
            EXPECT_EQ(got.dedupHits, 0u);
            EXPECT_GT(ref_failures, 0u);
            EXPECT_GT(ref_trivial, 0u);
            if (kind != DecoderKind::UnionFind)
                continue;

            // The kernel decodes the carrying graph alone: the other graph
            // flips no observable, so it would always predict 0.
            EXPECT_EQ(setup->zCarriesObservable, basis == MemoryBasis::Z);
            const auto& carrying =
                setup->zCarriesObservable ? setup->graphZ : setup->graphX;
            const auto& other =
                setup->zCarriesObservable ? setup->graphX : setup->graphZ;
            EXPECT_GT(other.edges().size(), 0u);
            std::size_t other_masked = 0;
            for (const auto& e : other.edges())
                other_masked += e.observables != 0;
            EXPECT_EQ(other_masked, 0u);

            // Its growth work is one standalone decoder's on that graph.
            UnionFindDecoder standalone(carrying);
            std::vector<std::uint32_t> nodes;
            for (std::size_t s = 0; s < samples.shots; ++s) {
                nodes.clear();
                carrying.projectSparse(fired[s], nodes);
                (void)standalone.decodeSparse(nodes);
            }
            EXPECT_GT(standalone.sweeps(), 0u);
            EXPECT_EQ(got.ufSweeps, standalone.sweeps());
            EXPECT_EQ(got.ufEdgeVisits, standalone.edgeVisits());
        }
    }
}

TEST(BatchDecode, UnionFindRefusesObservableFlipsInBothClasses)
{
    // Two independent pieces, one per detector class, each an X error
    // that its own detector sees and that flips observable 0.  One
    // decoded graph could predict only one piece's flips.
    stab::Circuit circuit(2);
    for (const std::uint32_t q : {0u, 1u}) {
        circuit.xError(q, 0.1);
        const auto m = circuit.measure(q);
        circuit.detector({m}, q == 0 ? kTagZ : kTagX);
        circuit.observableInclude(0, {m});
    }
    {
        ScopedFatalCapture capture;
        EXPECT_THROW(DecoderSetup::build(circuit, DecoderKind::UnionFind),
                     FatalError);
    }

    // The greedy DEM decoder has no graph split and corrects both.
    Rng rng(99);
    const auto result = runMemoryExperiment(circuit, 10000, 1,
                                            DecoderKind::GreedyDem, rng);
    EXPECT_EQ(result.shots, 10000u);
    EXPECT_EQ(result.failures, 0u);
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
    // Growth work is a function of the fired lists alone, so it joins
    // the exact cross-worker comparison below.
    for (const char* name :
         {"qec.decode.uf_sweeps", "qec.decode.uf_edge_visits"}) {
        const auto it = std::find_if(
            reference.counters.begin(), reference.counters.end(),
            [&](const auto& c) { return c.first == name; });
        ASSERT_NE(it, reference.counters.end()) << name;
        EXPECT_GT(it->second, 0u) << name;
    }
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
