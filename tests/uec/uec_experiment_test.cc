/**
 * @file
 * End-to-end UEC experiments: circuit validity, storage sensitivity,
 * and the paper's heterogeneous-vs-homogeneous ordering (Table 3).
 */

#include <gtest/gtest.h>

#include "core/units.hh"
#include "qec/css_code.hh"
#include "qec/memory_experiment.hh"
#include "stab/dem.hh"
#include "stab/tableau.hh"
#include "uec/experiment.hh"
#include "uec/lattice_baseline.hh"
#include "uec/uec_circuit.hh"

namespace hetarch {
namespace uec {
namespace {

using namespace units;

TEST(UecCircuit, DetectorsDeterministic)
{
    for (const auto& code : {qec::makeSteane(), qec::makeRotatedSurface(3)}) {
        const auto a = roundRobinAssignment(code);
        UecNoise noise;
        const auto circ = uecMemoryZ(code, a, 2, noise);
        EXPECT_TRUE(stab::findNondeterminism(circ).empty()) << code.name;
        // The sampled oracle misses a single coin with odds 2^-31 at 32 runs.
        EXPECT_TRUE(
            stab::TableauSimulator::checkDetectorsDeterministic(circ, 32))
            << code.name;
    }
}

TEST(UecCircuit, DetectorCount)
{
    const auto code = qec::makeSteane();
    const auto a = roundRobinAssignment(code);
    UecNoise noise;
    const std::size_t rounds = 3;
    const auto circ = uecMemoryZ(code, a, rounds, noise);
    // Z: 3 per round + 3 final; X: 3 per round from round 2.
    EXPECT_EQ(circ.numDetectors(), 3 * rounds + 3 + 3 * (rounds - 1));
    EXPECT_EQ(circ.numObservables(), 1u);
}

TEST(UecCircuit, NoiselessIsQuiet)
{
    const auto code = qec::makeReedMuller15();
    const auto a = roundRobinAssignment(code);
    UecNoise noise;
    noise.ts = 1e15;
    noise.tc = 1e15;
    noise.p2 = 0.0;
    const auto circ = uecMemoryZ(code, a, 2, noise);
    Rng rng(3);
    const auto res = qec::runMemoryExperiment(
        circ, 200, 2, qec::DecoderKind::GreedyDem, rng);
    EXPECT_EQ(res.failures, 0u);
}

TEST(UecExperiment, LongerStorageIsBetter)
{
    const auto code = qec::makeSteane();
    const double bad = uecLogicalErrorPerRound(code, 0.5 * ms, 3, 4000, 7);
    const double good =
        uecLogicalErrorPerRound(code, 50.0 * ms, 3, 4000, 7);
    EXPECT_LT(good, bad);
}

TEST(UecExperiment, HeterogeneousWinsForNonPlanarCodes)
{
    // The paper's headline Table 3 ordering: RM / color / Steane do
    // better on the UEC than on the homogeneous lattice.
    for (const auto& code : {qec::makeReedMuller15(), qec::makeSteane(),
                             qec::makeColorCode(5)}) {
        const double het =
            uecLogicalErrorPerRound(code, 50.0 * ms, 3, 3000, 11);
        const double hom =
            homogeneousLogicalErrorPerRound(code, 3, 3000, 13);
        EXPECT_LT(het, hom) << code.name;
    }
}

TEST(UecExperiment, HomogeneousWinsForSurfaceCode)
{
    const auto code = qec::makeRotatedSurface(3);
    const double het =
        uecLogicalErrorPerRound(code, 50.0 * ms, 3, 4000, 17);
    const double hom = homogeneousLogicalErrorPerRound(code, 3, 4000, 19);
    EXPECT_LT(hom, het);
}

TEST(Lattice, EmbeddingIsValid)
{
    for (const auto& code : qec::paperCodeZoo()) {
        const auto emb = embedOnLattice(code);
        // All cells distinct.
        std::vector<int> all = emb.dataCell;
        all.insert(all.end(), emb.checkCell.begin(), emb.checkCell.end());
        std::sort(all.begin(), all.end());
        EXPECT_TRUE(std::adjacent_find(all.begin(), all.end()) ==
                    all.end())
            << code.name;
        for (auto c : all) {
            EXPECT_GE(c, 0);
            EXPECT_LT(c, emb.side * emb.side);
        }
    }
}

TEST(Lattice, CircuitDetectorsDeterministic)
{
    const auto code = qec::makeSteane();
    const auto emb = embedOnLattice(code);
    LatticeNoise noise;
    const auto circ = latticeMemoryZ(code, emb, 2, noise);
    EXPECT_TRUE(stab::findNondeterminism(circ).empty());
    // The sampled oracle misses a single coin with odds 2^-31 at 32 runs.
    EXPECT_TRUE(
        stab::TableauSimulator::checkDetectorsDeterministic(circ, 32));
}

TEST(Lattice, NoiselessIsQuiet)
{
    const auto code = qec::makeColorCode(5);
    const auto emb = embedOnLattice(code);
    LatticeNoise noise;
    noise.tc = 1e15;
    noise.p2 = 0.0;
    const auto circ = latticeMemoryZ(code, emb, 2, noise);
    Rng rng(5);
    const auto res = qec::runMemoryExperiment(
        circ, 200, 2, qec::DecoderKind::GreedyDem, rng);
    EXPECT_EQ(res.failures, 0u);
}

TEST(Pseudothreshold, SteaneHasOne)
{
    const double pt = pseudothreshold(qec::makeSteane(), 4000, 23);
    EXPECT_GT(pt, 0.01);
    EXPECT_LT(pt, 0.4);
}

TEST(Pseudothreshold, RepetitionCodeBeatsSteaneForBitFlips)
{
    // Sanity: d=5 repetition (bit-flip only) has a high pseudothreshold
    // against X errors.
    const double pt = pseudothreshold(qec::makeRepetition(5), 4000, 29);
    EXPECT_GT(pt, 0.05);
}

} // namespace
} // namespace uec
} // namespace hetarch
