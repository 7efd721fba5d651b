/**
 * @file
 * Tests for the memory-X surface experiment and the automatic
 * observable-graph detection in the decoder harness.
 */

#include <gtest/gtest.h>

#include "core/units.hh"
#include "qec/memory_experiment.hh"
#include "qec/surface_circuit.hh"
#include "stab/dem.hh"
#include "stab/tableau.hh"

namespace hetarch {
namespace qec {
namespace {

using namespace units;

CircuitNoise
lowNoise()
{
    CircuitNoise noise;
    noise.p2 = 2e-3;
    noise.p1 = 2e-4;
    noise.dataT1 = noise.dataT2 = 10.0 * ms;
    noise.ancT1 = noise.ancT2 = 10.0 * ms;
    return noise;
}

TEST(MemoryX, DetectorsDeterministic)
{
    const auto circ = surfaceMemory(3, 2, lowNoise(), MemoryBasis::X);
    EXPECT_TRUE(stab::findNondeterminism(circ).empty());
    // The sampled oracle misses a single coin with odds 2^-31 at 32 runs.
    EXPECT_TRUE(
        stab::TableauSimulator::checkDetectorsDeterministic(circ, 32));
}

TEST(MemoryX, DetectorCountMirrorsMemoryZ)
{
    const auto cz = surfaceMemory(3, 3, lowNoise(), MemoryBasis::Z);
    const auto cx = surfaceMemory(3, 3, lowNoise(), MemoryBasis::X);
    EXPECT_EQ(cz.numDetectors(), cx.numDetectors());
    EXPECT_EQ(cz.numMeasurements(), cx.numMeasurements());
}

TEST(MemoryX, LogicalErrorSuppressedBelowThreshold)
{
    const auto circ = surfaceMemory(3, 3, lowNoise(), MemoryBasis::X);
    Rng rng(41);
    const auto res =
        runMemoryExperiment(circ, 8000, 3, DecoderKind::UnionFind, rng);
    EXPECT_LT(res.perRound(), 5e-3);
}

TEST(MemoryX, DistanceHelps)
{
    auto run = [&](std::size_t d) {
        const auto circ =
            surfaceMemory(d, d, lowNoise(), MemoryBasis::X);
        Rng rng(43 + d);
        return runMemoryExperiment(circ, 6000, d,
                                   DecoderKind::UnionFind, rng)
            .perRound();
    };
    EXPECT_LT(run(5), run(3) + 1e-3);
}

TEST(MemoryX, BasesRoughlySymmetricUnderSymmetricNoise)
{
    // With T1 = T2 and symmetric gates, memory-X and memory-Z rates
    // should be within a small factor of each other.
    auto run = [&](MemoryBasis basis, std::uint64_t seed) {
        const auto circ = surfaceMemory(3, 3, lowNoise(), basis);
        Rng rng(seed);
        return runMemoryExperiment(circ, 10000, 3,
                                   DecoderKind::UnionFind, rng)
            .perRound();
    };
    const double pz = run(MemoryBasis::Z, 7);
    const double px = run(MemoryBasis::X, 8);
    EXPECT_LT(px, 6.0 * pz + 2e-3);
    EXPECT_LT(pz, 6.0 * px + 2e-3);
}

} // namespace
} // namespace qec
} // namespace hetarch
