/**
 * @file
 * Tests for the bit-packed sparse decode pipeline: the arena-backed
 * union-find decoder must be bit-identical to the dense reference in
 * tests/support — predicted mask, correction edges in peel order and
 * growth counters, on random syndromes, on hand-built graphs at the
 * edges of its quiet-sweep pass, and at the d = 13 Fig. 6 and
 * sub-threshold operating points — weight-0 shots must be counted by
 * the trivial-shot bypass, all observables must be failure-checked,
 * and the packed samples plus every decode counter must be invariant
 * across 1/2/8 workers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
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
#include "stab/dem.hh"
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

/**
 * Decode @p fired (global detector ids) with @p dec and with the dense
 * reference, expecting the same mask, correction edges and growth
 * work; returns the number of correction edges.
 */
std::size_t
expectMatchesReference(UnionFindDecoder& dec, const DecodingGraph& graph,
                       std::span<const std::uint32_t> fired,
                       const std::string& where)
{
    std::vector<std::uint32_t> dense_edges, sparse_edges;
    GrowthWork work;
    const auto dense = unionFindReference(
        graph, denseSyndrome(graph, fired), &dense_edges, &work);
    std::vector<std::uint32_t> nodes;
    graph.projectSparse(fired, nodes);
    const auto sweeps = dec.sweeps();
    const auto visits = dec.edgeVisits();
    EXPECT_EQ(dec.decodeSparse(nodes, &sparse_edges), dense) << where;
    EXPECT_EQ(sparse_edges, dense_edges) << where;
    EXPECT_EQ(dec.sweeps() - sweeps, work.sweeps) << where;
    EXPECT_EQ(dec.edgeVisits() - visits, work.edgeVisits) << where;
    return dense_edges.size();
}

/**
 * Sweeps in which no edge of @p graph can complete: an edge grows by
 * at most 4 a sweep, 2 from its one end at the boundary.
 */
std::int32_t
quietSweeps(const DecodingGraph& graph)
{
    std::int32_t quiet = INT32_MAX;
    for (const auto& e : graph.edges())
        quiet = std::min(quiet, e.v < 0 ? (e.weight + 1) / 2 - 1
                                        : (e.weight + 3) / 4 - 1);
    return quiet;
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
                expectMatchesReference(
                    dec, *graph, fired,
                    "permille=" + std::to_string(permille) +
                        " trial=" + std::to_string(trial));
            }
        }
    }
    // The empty syndrome decodes to the zero correction on both paths.
    EXPECT_EQ(dec_z.decodeSparse({}), 0u);
    EXPECT_EQ(unionFindReference(setup->graphZ,
                                 denseSyndrome(setup->graphZ, {})),
              0u);
}

/**
 * Decode @p shots sampled shots of the d = 13 memory circuit at
 * @p noise on both graphs, each against the dense reference, after
 * checking that the carrying graph has @p quiet quiet sweeps; returns
 * the number of correction edges compared.
 */
std::size_t
expectDistance13MatchesReference(const CircuitNoise& noise,
                                 std::size_t shots, std::int32_t quiet)
{
    const auto circuit = surfaceMemoryZ(13, 13, noise);
    const auto setup = DecoderSetup::build(circuit, DecoderKind::UnionFind);
    EXPECT_EQ(quietSweeps(setup->graphZ), quiet);

    const stab::FrameSimulator frame(circuit);
    Rng rng(1313);
    const auto samples = frame.sampleDetectors(shots, rng);
    const auto fired = firedDetectors(samples);

    // One decoder pair reused across every shot, as a chunk kernel is.
    UnionFindDecoder dec_z(setup->graphZ);
    UnionFindDecoder dec_x(setup->graphX);
    std::size_t edges_compared = 0;
    for (std::size_t s = 0; s < samples.shots; ++s) {
        for (const auto* graph : {&setup->graphZ, &setup->graphX}) {
            auto& dec = graph == &setup->graphZ ? dec_z : dec_x;
            edges_compared += expectMatchesReference(
                dec, *graph, fired[s], "shot " + std::to_string(s));
        }
    }
    return edges_compared;
}

TEST(PackedDecode, SparseUnionFindMatchesDenseAtFig6Distance13)
{
    // The production regime: ~117 defects and ~160 merges per graph
    // decode, where a wrong union tie-break or frontier order changes
    // the correction edges even when the 1-bit mask survives.  Edge
    // weights 6-12: one quiet sweep.
    CircuitNoise noise;
    noise.p2 = 1e-2;
    noise.p1 = 1e-3;
    noise.dataT1 = noise.dataT2 = 0.1 * units::ms;
    noise.ancT1 = noise.ancT2 = 0.1 * units::ms;
    const std::size_t shots = 256;
    const auto edges = expectDistance13MatchesReference(noise, shots, 1);
    // Dozens of correction edges per graph decode, not a sparse tail.
    EXPECT_GT(edges, 2 * shots * 30);
}

TEST(PackedDecode, SparseUnionFindMatchesDenseSubThresholdDistance13)
{
    // The decoder-ablation point (shotbench's mem_d13_sub): edge
    // weights 10-16, so two quiet sweeps precede the first merge.
    CircuitNoise noise;
    noise.p2 = 1e-3;
    noise.p1 = 1e-4;
    noise.dataT1 = noise.dataT2 = 0.5 * units::ms;
    noise.ancT1 = noise.ancT2 = 0.5 * units::ms;
    const std::size_t shots = 1024;
    const auto edges = expectDistance13MatchesReference(noise, shots, 2);
    EXPECT_GT(edges, 2 * shots * 5);
}

/**
 * A three-qubit repetition line plus a lone detector: an X error on q0
 * or q2 flips one detector (a boundary edge), on q1 both (an ordinary
 * edge), and detector 2 reads q3, which no error touches.
 */
stab::Circuit
repetitionLine(double p_left, double p_mid, double p_right)
{
    stab::Circuit c(4);
    c.xError(0, p_left);
    c.xError(1, p_mid);
    c.xError(2, p_right);
    std::vector<std::size_t> m;
    for (std::uint32_t q = 0; q < 4; ++q)
        m.push_back(c.measure(q));
    c.detector({m[0], m[1]});
    c.detector({m[1], m[2]});
    c.detector({m[3]});
    c.observableInclude(0, {m[0]});
    return c;
}

TEST(PackedDecode, SparseUnionFindMatchesDenseAtQuietSweepEdgeCases)
{
    // Weights: p = 0.3 -> 2, 0.047 -> 6, 1e-3 -> 14.  No quiet sweep
    // (a weight-2 edge); two set by a boundary edge, whose ordinary
    // neighbour would allow three; one set by an ordinary edge, whose
    // boundary neighbours would allow six.
    struct Case
    {
        double left, mid, right;
        std::int32_t quiet;
    };
    for (const Case& c : {Case{0.3, 1e-3, 1e-3, 0},
                          Case{0.047, 1e-3, 1e-3, 2},
                          Case{1e-3, 0.047, 1e-3, 1}}) {
        const auto circuit = repetitionLine(c.left, c.mid, c.right);
        const auto dem = stab::buildDetectorErrorModel(circuit);
        const auto graph =
            DecodingGraph::fromDem(dem, circuit.detectorTags(), 0);
        ASSERT_EQ(graph.numNodes(), 3u);
        ASSERT_EQ(graph.edges().size(), 3u);
        ASSERT_TRUE(graph.incident(2).empty());
        EXPECT_EQ(quietSweeps(graph), c.quiet);

        UnionFindDecoder dec(graph);
        // Every syndrome, twice over, so each decode also runs on an
        // arena the previous ones stamped.
        for (int pass = 0; pass < 2; ++pass) {
            for (std::uint32_t bits = 1; bits < 8; ++bits) {
                std::vector<std::uint32_t> fired;
                for (std::uint32_t d = 0; d < 3; ++d)
                    if ((bits >> d) & 1)
                        fired.push_back(d);
                expectMatchesReference(
                    dec, graph, fired,
                    "quiet=" + std::to_string(c.quiet) +
                        " bits=" + std::to_string(bits));
            }
        }
        // A fired detector no mechanism touches: the schedule's one
        // sweep visits nothing, whatever the quiet count.
        const std::uint32_t lone[] = {2};
        const auto sweeps = dec.sweeps();
        const auto visits = dec.edgeVisits();
        EXPECT_EQ(dec.decodeSparse(lone), 0u);
        EXPECT_EQ(dec.sweeps() - sweeps, 1u);
        EXPECT_EQ(dec.edgeVisits(), visits);
    }
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
