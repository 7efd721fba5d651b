/**
 * @file
 * Decoder tests: union-find on repetition/surface graphs, greedy DEM
 * decoder on small codes, end-to-end logical error rates.
 */

#include <gtest/gtest.h>

#include "qec/css_circuit.hh"
#include "qec/css_code.hh"
#include "qec/dem_decoder.hh"
#include "qec/memory_experiment.hh"
#include "qec/surface_circuit.hh"
#include "qec/union_find.hh"
#include "stab/dem.hh"
#include "stab/tableau.hh"

namespace hetarch {
namespace qec {
namespace {

TEST(DecoderGraph, RepetitionGraphShape)
{
    const auto code = makeRepetition(5);
    const auto circ = codeCapacityMemoryZ(code, 1, 0.1);
    const auto dem = stab::buildDetectorErrorModel(circ);
    const auto graph =
        DecodingGraph::fromDem(dem, circ.detectorTags(), kTagZ);
    // 4 checks x 2 rounds of detectors.
    EXPECT_EQ(graph.numNodes(), 8u);
    EXPECT_GT(graph.edges().size(), 0u);
    EXPECT_EQ(graph.undecomposedCount(), 0u);
    // Boundary edges must exist (ends of the chain).
    bool has_boundary = false;
    for (const auto& e : graph.edges())
        if (e.v == -1)
            has_boundary = true;
    EXPECT_TRUE(has_boundary);
}

TEST(UnionFind, CorrectsSingleErrorsRepetition)
{
    const auto code = makeRepetition(5);
    const auto circ = codeCapacityMemoryZ(code, 2, 0.01);
    const auto dem = stab::buildDetectorErrorModel(circ);
    const auto graph =
        DecodingGraph::fromDem(dem, circ.detectorTags(), kTagZ);
    UnionFindDecoder dec(graph);

    // Every single mechanism must be decoded back to its own
    // observable effect.
    for (const auto& mech : dem.mechanisms) {
        std::vector<std::uint32_t> fired;
        graph.projectSparse(mech.detectors, fired);
        if (fired.size() != mech.detectors.size())
            continue; // a detector outside this graph
        EXPECT_EQ(dec.decodeSparse(fired), mech.observables)
            << "mechanism with p=" << mech.probability;
    }
}

TEST(UnionFind, EmptySyndromeGivesNoCorrection)
{
    const auto code = makeRepetition(3);
    const auto circ = codeCapacityMemoryZ(code, 1, 0.1);
    const auto dem = stab::buildDetectorErrorModel(circ);
    const auto graph =
        DecodingGraph::fromDem(dem, circ.detectorTags(), kTagZ);
    UnionFindDecoder dec(graph);
    EXPECT_EQ(dec.decodeSparse({}), 0u);
}

TEST(UnionFind, RepetitionLogicalRateSuppressed)
{
    // Code capacity p=0.05: d=5 repetition failure ~ C * p^3 << p.
    const auto code = makeRepetition(5);
    const auto circ = codeCapacityMemoryZ(code, 1, 0.05);
    Rng rng(7);
    const auto res =
        runMemoryExperiment(circ, 20000, 1, DecoderKind::UnionFind, rng);
    EXPECT_LT(res.perShot(), 0.01);
}

TEST(DemDecoder, CorrectsAllSingleMechanisms)
{
    for (const auto& code : {makeSteane(), makeReedMuller15(),
                             makeColorCode(5)}) {
        const auto circ = codeCapacityMemoryZ(code, 1, 0.01, 0.01);
        const auto dem = stab::buildDetectorErrorModel(circ);
        DemDecoder dec(dem);
        std::vector<std::uint32_t> residual, next;
        for (const auto& mech : dem.mechanisms)
            EXPECT_EQ(dec.decodeSparse(mech.detectors, residual, next) & 1u,
                      mech.observables & 1u)
                << code.name;
    }
}

TEST(DemDecoder, SteaneSuppressesErrors)
{
    const auto code = makeSteane();
    const double p = 0.02;
    const auto circ = codeCapacityMemoryZ(code, 1, p);
    Rng rng(11);
    const auto res =
        runMemoryExperiment(circ, 20000, 1, DecoderKind::GreedyDem, rng);
    // Distance 3: failures scale ~ p^2; must beat the unencoded rate.
    EXPECT_LT(res.perShot(), p);
}

TEST(SurfaceCircuit, DetectorsAreDeterministic)
{
    CircuitNoise noise;
    const auto circ = surfaceMemoryZ(3, 2, noise);
    EXPECT_TRUE(stab::TableauSimulator::checkDetectorsDeterministic(circ));
}

TEST(SurfaceCircuit, DetectorCount)
{
    CircuitNoise noise;
    const std::size_t d = 3, rounds = 3;
    const auto circ = surfaceMemoryZ(d, rounds, noise);
    // Z-detectors: 4 per round + 4 final; X: 4 per round from round 2.
    const std::size_t expect_z = 4 * rounds + 4;
    const std::size_t expect_x = 4 * (rounds - 1);
    EXPECT_EQ(circ.numDetectors(), expect_z + expect_x);
}

TEST(SurfaceCircuit, GraphsDecomposeCleanly)
{
    CircuitNoise noise;
    const auto circ = surfaceMemoryZ(3, 3, noise);
    const auto dem = stab::buildDetectorErrorModel(circ);
    const auto gz = DecodingGraph::fromDem(dem, circ.detectorTags(), kTagZ);
    const auto gx = DecodingGraph::fromDem(dem, circ.detectorTags(), kTagX);
    EXPECT_EQ(gz.undecomposedCount(), 0u);
    EXPECT_EQ(gx.undecomposedCount(), 0u);
}

TEST(SurfaceMemory, LowNoiseHasLowLogicalError)
{
    CircuitNoise noise;
    noise.p2 = 1e-3;
    noise.p1 = 1e-4;
    noise.dataT1 = noise.dataT2 = 1e9; // effectively no idle error
    noise.ancT1 = noise.ancT2 = 1e9;
    const double p_round =
        surfaceLogicalErrorPerRound(3, 3, noise, 4000, 99);
    EXPECT_LT(p_round, 0.01);
}

TEST(SurfaceMemory, DistanceHelpsBelowThreshold)
{
    CircuitNoise noise;
    noise.p2 = 2e-3;
    noise.p1 = 2e-4;
    noise.dataT1 = noise.dataT2 = 1.0e7; // 10 ms: idle subdominant
    noise.ancT1 = noise.ancT2 = 1.0e7;
    const double p3 = surfaceLogicalErrorPerRound(3, 3, noise, 6000, 5);
    const double p5 = surfaceLogicalErrorPerRound(5, 5, noise, 6000, 6);
    EXPECT_LT(p5, p3);
}

TEST(SurfaceMemory, MoreNoiseMoreErrors)
{
    CircuitNoise base;
    base.dataT1 = base.dataT2 = 1e8;
    base.ancT1 = base.ancT2 = 1e8;
    base.p2 = 1e-3;
    CircuitNoise noisy = base;
    noisy.p2 = 2e-2;
    const double lo = surfaceLogicalErrorPerRound(3, 3, base, 4000, 21);
    const double hi = surfaceLogicalErrorPerRound(3, 3, noisy, 4000, 22);
    EXPECT_LT(lo, hi);
}

TEST(MemoryResult, PerRoundInversion)
{
    MemoryResult r;
    r.shots = 1000;
    r.rounds = 10;
    r.failures = 100; // p_shot = 0.1
    // (1 - (1-2p)^10)/2 = 0.1  =>  p ~ 0.01113.
    EXPECT_NEAR(r.perRound(), 0.011128, 1e-4);
}

} // namespace
} // namespace qec
} // namespace hetarch
