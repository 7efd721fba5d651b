/**
 * @file
 * Tests for the bit-packed sparse decode pipeline: the arena-backed
 * union-find decoder must be bit-identical to the dense reference in
 * tests/support — predicted mask and correction edges in peel order,
 * on random syndromes and at the d = 13 Fig. 6 operating point —
 * weight-0 shots must be counted by the trivial-shot bypass, all
 * observables must be failure-checked, and the packed samples plus
 * every decode counter must be invariant across 1/2/8 workers.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/rng.hh"
#include "core/units.hh"
#include "exec/shot_scheduler.hh"
#include "exec/thread_pool.hh"
#include "obs/obs.hh"
#include "qec/decoder_cache.hh"
#include "qec/memory_experiment.hh"
#include "qec/surface_circuit.hh"
#include "stab/frame.hh"
#include "support/packed_samples.hh"
#include "support/union_find_reference.hh"

namespace hetarch {
namespace qec {
namespace {

std::uint64_t
counterValue(const obs::Snapshot& snap, const std::string& name)
{
    for (const auto& [n, v] : snap.counters)
        if (n == name)
            return v;
    return 0;
}

TEST(PackedDecode, SparseUnionFindMatchesDenseOnRandomSyndromes)
{
    CircuitNoise noise;
    noise.p2 = 3e-3;
    const auto circuit = surfaceMemoryZ(5, 3, noise);
    const auto setup = DecoderSetup::build(circuit, DecoderKind::UnionFind);

    // One sparse decoder reused across every trial and density, so the
    // epoch arena is exercised with many different syndromes in a row;
    // the dense reference allocates fresh state per call by
    // construction.
    UnionFindDecoder dec_z(setup->graphZ);
    UnionFindDecoder dec_x(setup->graphX);

    Rng rng(2026);
    const std::size_t n_dets = circuit.numDetectors();
    for (const int permille : {5, 30, 150, 500}) {
        for (int trial = 0; trial < 40; ++trial) {
            std::vector<std::uint32_t> fired;
            for (std::uint32_t d = 0; d < n_dets; ++d)
                if (rng() % 1000 < static_cast<std::uint64_t>(permille))
                    fired.push_back(d);

            for (const auto* graph : {&setup->graphZ, &setup->graphX}) {
                auto& dec = graph == &setup->graphZ ? dec_z : dec_x;
                std::vector<std::uint32_t> dense_edges, sparse_edges;
                const auto dense = unionFindReference(
                    *graph, denseSyndrome(*graph, fired), &dense_edges);
                std::vector<std::uint32_t> nodes;
                graph->projectSparse(fired, nodes);
                EXPECT_EQ(dec.decodeSparse(nodes, &sparse_edges), dense)
                    << "permille=" << permille << " trial=" << trial;
                EXPECT_EQ(sparse_edges, dense_edges)
                    << "permille=" << permille << " trial=" << trial;
            }
        }
    }
    // The empty syndrome decodes to the zero correction on both paths.
    EXPECT_EQ(dec_z.decodeSparse({}), 0u);
    EXPECT_EQ(unionFindReference(setup->graphZ,
                                 denseSyndrome(setup->graphZ, {})),
              0u);
}

TEST(PackedDecode, SparseUnionFindMatchesDenseAtFig6Distance13)
{
    // The production regime: ~117 defects and ~160 merges per graph
    // decode, where a wrong union tie-break or frontier order changes
    // the correction edges even when the 1-bit mask survives.
    CircuitNoise noise;
    noise.p2 = 1e-2;
    noise.p1 = 1e-3;
    noise.dataT1 = noise.dataT2 = 0.1 * units::ms;
    noise.ancT1 = noise.ancT2 = 0.1 * units::ms;
    const auto circuit = surfaceMemoryZ(13, 13, noise);
    const auto setup = DecoderSetup::build(circuit, DecoderKind::UnionFind);

    const stab::FrameSimulator frame(circuit);
    Rng rng(1313);
    const auto samples = frame.sampleDetectors(256, rng);
    const auto fired = firedDetectors(samples);

    // One decoder pair reused across every shot, as a chunk kernel is.
    UnionFindDecoder dec_z(setup->graphZ);
    UnionFindDecoder dec_x(setup->graphX);
    std::size_t edges_compared = 0;
    for (std::size_t s = 0; s < samples.shots; ++s) {
        for (const auto* graph : {&setup->graphZ, &setup->graphX}) {
            auto& dec = graph == &setup->graphZ ? dec_z : dec_x;
            std::vector<std::uint32_t> dense_edges, sparse_edges;
            const auto dense = unionFindReference(
                *graph, denseSyndrome(*graph, fired[s]), &dense_edges);
            std::vector<std::uint32_t> nodes;
            graph->projectSparse(fired[s], nodes);
            EXPECT_EQ(dec.decodeSparse(nodes, &sparse_edges), dense)
                << "shot " << s;
            EXPECT_EQ(sparse_edges, dense_edges) << "shot " << s;
            edges_compared += dense_edges.size();
        }
    }
    // Dozens of correction edges per graph decode, not a sparse tail.
    EXPECT_GT(edges_compared, 2 * samples.shots * 30);
}

TEST(PackedDecode, TrivialShotCounterMatchesWeightZeroShotsExactly)
{
    CircuitNoise noise;
    noise.p2 = 1e-3; // low noise: most shots are weight 0
    const auto circuit = surfaceMemoryZ(3, 2, noise);
    const auto setup = DecoderSetup::build(circuit, DecoderKind::UnionFind);

    const stab::FrameSimulator frame(circuit);
    Rng rng(99);
    const auto samples = frame.sampleDetectors(1000, rng);

    std::size_t expected_trivial = 0;
    for (std::size_t s = 0; s < samples.shots; ++s)
        expected_trivial += shotWeight(samples, s) == 0;
    ASSERT_GT(expected_trivial, 0u);
    ASSERT_LT(expected_trivial, samples.shots);

    obs::Registry::instance().reset();
    countLogicalFailures(*setup, DecoderKind::UnionFind, samples);
    const auto snap = obs::Registry::instance().snapshot();
    EXPECT_EQ(counterValue(snap, "qec.decode.trivial_shots"),
              expected_trivial);
    EXPECT_EQ(counterValue(snap, "qec.decode.shots"), samples.shots);
}

TEST(PackedDecode, AllObservablesAreFailureChecked)
{
    // Observable 0 never flips; observable 1 always does, with no
    // detector firing — so every shot takes the trivial bypass and a
    // decoder comparing only observable 0 would report zero failures.
    stab::Circuit c(2);
    c.xError(1, 1.0);
    const auto m0 = c.measure(0);
    const auto m1 = c.measure(1);
    c.detector({m0});
    c.observableInclude(0, {m0});
    c.observableInclude(1, {m1});

    const auto setup = DecoderSetup::build(c, DecoderKind::GreedyDem);
    const stab::FrameSimulator frame(c);
    Rng rng(4);
    const auto samples = frame.sampleDetectors(128, rng);
    ASSERT_EQ(samples.numObservables, 2u);

    obs::Registry::instance().reset();
    EXPECT_EQ(countLogicalFailures(*setup, DecoderKind::GreedyDem, samples),
              samples.shots);
    const auto snap = obs::Registry::instance().snapshot();
    EXPECT_EQ(counterValue(snap, "qec.decode.trivial_shots"),
              samples.shots);
}

TEST(PackedDecode, PackedSamplesMatchReferenceAcrossWorkerCounts)
{
    CircuitNoise noise;
    noise.p2 = 3e-3;
    const auto circuit = surfaceMemoryZ(3, 3, noise);
    const std::size_t shots = 1000;
    const std::uint64_t base = 0xfeedbeefcafe1234ull;
    const exec::ShotScheduler sched(shots);

    // Reference: the sampler run serially chunk by chunk, outside the
    // pool, with the production chunk streams.
    const stab::FrameSimulator frame(circuit);
    stab::DetectorSamples reference;
    reference.resize(0, circuit.numDetectors(), circuit.numObservables());
    for (std::size_t i = 0; i < sched.numChunks(); ++i) {
        const auto chunk = sched.chunk(i);
        Rng chunk_rng = exec::ShotScheduler::chunkRng(base, chunk.index);
        reference.append(frame.sampleDetectors(chunk.count, chunk_rng));
    }
    ASSERT_EQ(reference.shots, shots);

    for (const unsigned workers : {1u, 2u, 8u}) {
        exec::setThreadCount(workers);
        std::vector<stab::DetectorSamples> parts(sched.numChunks());
        exec::parallelFor(sched.numChunks(), [&](std::size_t i) {
            const auto chunk = sched.chunk(i);
            Rng chunk_rng =
                exec::ShotScheduler::chunkRng(base, chunk.index);
            parts[i] = frame.sampleDetectors(chunk.count, chunk_rng);
        });
        stab::DetectorSamples packed;
        packed.resize(0, circuit.numDetectors(),
                      circuit.numObservables());
        for (auto& part : parts)
            packed.append(part);

        EXPECT_EQ(packed.detWords, reference.detWords)
            << workers << " workers";
        EXPECT_EQ(packed.obsWords, reference.obsWords)
            << workers << " workers";
        // The shot-major views read the same bits.
        EXPECT_EQ(unpackedDetectors(packed), unpackedDetectors(reference))
            << workers << " workers";
        EXPECT_EQ(unpackedObservables(packed),
                  unpackedObservables(reference))
            << workers << " workers";
    }
    exec::setThreadCount(0);
}

TEST(PackedDecode, FailuresAndTrivialShotsAreThreadInvariant)
{
    CircuitNoise noise;
    noise.p2 = 3e-3;
    const auto circuit = surfaceMemoryZ(3, 4, noise);

    std::vector<std::size_t> failures;
    std::vector<std::uint64_t> trivial;
    for (const unsigned workers : {1u, 2u, 8u}) {
        exec::setThreadCount(workers);
        DecoderCache::instance().clear();
        obs::Registry::instance().reset();
        Rng rng(1234);
        const auto result = runMemoryExperiment(circuit, 1500, 4,
                                                DecoderKind::UnionFind,
                                                rng);
        const auto snap = obs::Registry::instance().snapshot();
        failures.push_back(result.failures);
        trivial.push_back(counterValue(snap, "qec.decode.trivial_shots"));
        EXPECT_EQ(counterValue(snap, "qec.decode.shots"), 1500u);
    }
    exec::setThreadCount(0);

    EXPECT_GT(trivial[0], 0u);
    for (std::size_t w = 1; w < failures.size(); ++w) {
        EXPECT_EQ(failures[w], failures[0]) << "worker set " << w;
        EXPECT_EQ(trivial[w], trivial[0]) << "worker set " << w;
    }
}

} // namespace
} // namespace qec
} // namespace hetarch
