/**
 * @file
 * Parameterized property tests over the QEC code zoo and decoders.
 */

#include <gtest/gtest.h>

#include "qec/css_circuit.hh"
#include "qec/css_code.hh"
#include "qec/dem_decoder.hh"
#include "qec/memory_experiment.hh"
#include "stab/dem.hh"
#include "stab/tableau.hh"

namespace hetarch {
namespace qec {
namespace {

class CodeZoo : public ::testing::TestWithParam<int>
{
  protected:
    CssCode code() const
    {
        switch (GetParam()) {
          case 0: return makeSteane();
          case 1: return makeReedMuller15();
          case 2: return makeColorCode(3);
          case 3: return makeColorCode(5);
          case 4: return makeRotatedSurface(2);
          case 5: return makeRotatedSurface(3);
          case 6: return makeRotatedSurface(4);
          case 7: return makeRotatedSurface(5);
          default: return makeRepetition(5);
        }
    }
};

TEST_P(CodeZoo, DefinitionIsValid)
{
    code().validate();
}

TEST_P(CodeZoo, DistanceMatchesClaim)
{
    const auto c = code();
    if (c.xChecks.empty())
        GTEST_SKIP() << "repetition code protects one basis only";
    // Z distance is what the memory-Z experiments exercise.
    EXPECT_EQ(c.minLogicalZWeight(), c.distance) << c.name;
}

TEST_P(CodeZoo, LogicalsCommuteProperly)
{
    const auto c = code();
    std::size_t overlap = 0;
    for (auto a : c.logicalX)
        for (auto b : c.logicalZ)
            if (a == b)
                ++overlap;
    EXPECT_EQ(overlap % 2, 1u) << c.name;
}

TEST_P(CodeZoo, SyndromeCircuitDetectorsDeterministic)
{
    const auto circ = codeCapacityMemoryZ(code(), 2, 0.05, 0.05);
    EXPECT_TRUE(stab::findNondeterminism(circ).empty());
    // The sampled oracle misses a single coin with odds 2^-31 at 32 runs.
    EXPECT_TRUE(
        stab::TableauSimulator::checkDetectorsDeterministic(circ, 32));
}

TEST_P(CodeZoo, DecoderCorrectsEverySingleMechanism)
{
    const auto c = code();
    if (c.distance < 3)
        GTEST_SKIP() << "distance-2 codes only detect single errors";
    const auto circ = codeCapacityMemoryZ(c, 1, 0.01, 0.01);
    const auto dem = stab::buildDetectorErrorModel(circ);
    DemDecoder dec(dem);
    std::vector<std::uint32_t> residual, next;
    std::size_t bad = 0;
    for (const auto& mech : dem.mechanisms)
        if ((dec.decodeSparse(mech.detectors, residual, next) & 1u) !=
            (mech.observables & 1u))
            ++bad;
    EXPECT_EQ(bad, 0u) << c.name;
}

TEST_P(CodeZoo, LogicalErrorBelowPhysicalAtLowNoise)
{
    const auto c = code();
    if (c.distance < 3)
        GTEST_SKIP() << "distance-2 codes only detect";
    const double p = 0.01;
    const auto circ = codeCapacityMemoryZ(c, 1, p);
    Rng rng(31);
    const auto res =
        runMemoryExperiment(circ, 8000, 1, DecoderKind::GreedyDem, rng);
    EXPECT_LT(res.perShot(), p) << c.name;
}

INSTANTIATE_TEST_SUITE_P(AllCodes, CodeZoo, ::testing::Range(0, 9));

class SurfaceNoiseSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(SurfaceNoiseSweep, LogicalErrorMonotoneInDataCoherence)
{
    // For any gate error level, longer data coherence never hurts.
    const double p2 = GetParam();
    CircuitNoise worse;
    worse.p2 = p2;
    worse.dataT1 = worse.dataT2 = 5e4; // 50 us
    worse.ancT1 = worse.ancT2 = 1e5;
    CircuitNoise better = worse;
    better.dataT1 = better.dataT2 = 1e6; // 1 ms
    const double p_worse =
        surfaceLogicalErrorPerRound(3, 3, worse, 4000, 3);
    const double p_better =
        surfaceLogicalErrorPerRound(3, 3, better, 4000, 4);
    EXPECT_LT(p_better, p_worse + 0.01);
}

INSTANTIATE_TEST_SUITE_P(GateErrors, SurfaceNoiseSweep,
                         ::testing::Values(1e-3, 5e-3, 1e-2));

} // namespace
} // namespace qec
} // namespace hetarch
