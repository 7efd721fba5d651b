/**
 * @file
 * Tests for the circuit IR builder: measurement-record bookkeeping,
 * append() offset remapping, qubit growth, and validation.
 */

#include <gtest/gtest.h>

#include "stab/circuit.hh"
#include "stab/dem.hh"
#include "stab/frame.hh"
#include "stab/tableau.hh"
#include "support/packed_samples.hh"

namespace hetarch {
namespace stab {
namespace {

TEST(Circuit, MeasurementIndicesAreSequential)
{
    Circuit c(3);
    EXPECT_EQ(c.measure(0), 0u);
    EXPECT_EQ(c.measureReset(1), 1u);
    EXPECT_EQ(c.measure(2), 2u);
    EXPECT_EQ(c.numMeasurements(), 3u);
}

TEST(Circuit, EnsureQubitGrowsRegister)
{
    Circuit c(1);
    c.h(5);
    EXPECT_EQ(c.numQubits(), 6u);
}

TEST(Circuit, DetectorValidatesMeasurementIndices)
{
    Circuit c(1);
    c.measure(0);
    EXPECT_DEATH(c.detector({3}), "references measurement");
}

TEST(Circuit, ObservableTracksMaxIndex)
{
    Circuit c(2);
    const auto m = c.measure(0);
    c.observableInclude(4, {m});
    EXPECT_EQ(c.numObservables(), 5u);
}

TEST(Circuit, ZeroProbabilityNoiseElided)
{
    Circuit c(1);
    c.xError(0, 0.0);
    c.depolarize1(0, 0.0);
    c.pauliChannel1(0, 0.0, 0.0, 0.0);
    EXPECT_EQ(c.size(), 0u);
}

TEST(Circuit, AppendRemapsMeasurementReferences)
{
    // Two copies of a detector-bearing block: the second block's
    // detectors must reference the second block's measurements.
    Circuit block(2);
    block.xError(0, 1.0);
    // measure-reset keeps blocks independent when repeated.
    const auto m0 = block.measureReset(0);
    const auto m1 = block.measure(1);
    block.detector({m0}, 7);
    block.observableInclude(0, {m1});

    Circuit total(2);
    total.append(block);
    total.append(block);
    EXPECT_EQ(total.numMeasurements(), 4u);
    EXPECT_EQ(total.numDetectors(), 2u);
    EXPECT_EQ(total.detectorTags().size(), 2u);
    EXPECT_EQ(total.detectorTags()[1], 7u);

    // Both detectors must fire (each block has its own X error).
    FrameSimulator sim(total);
    Rng rng(5);
    const auto s = sim.sampleDetectors(64, rng);
    for (std::size_t shot = 0; shot < 64; ++shot) {
        EXPECT_EQ(detBit(s, shot, 0), 1);
        EXPECT_EQ(detBit(s, shot, 1), 1);
        // Observable accumulated across both blocks: two X errors on
        // qubit 1? No: the X error hits qubit 0 only; qubit 1 is
        // untouched, so both measurements read 0 and the XOR is 0.
        EXPECT_EQ(obsBit(s, shot, 0), 0);
    }
}

TEST(Circuit, AppendGrowsQubitCount)
{
    Circuit small(2);
    Circuit big(5);
    small.append(big);
    EXPECT_EQ(small.numQubits(), 5u);
}

TEST(Circuit, ToStringMentionsOps)
{
    Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    c.depolarize2(0, 1, 0.25);
    c.measure(1);
    const auto text = c.toString();
    EXPECT_NE(text.find("H 0"), std::string::npos);
    EXPECT_NE(text.find("CX 0 1"), std::string::npos);
    EXPECT_NE(text.find("DEPOLARIZE2"), std::string::npos);
    EXPECT_NE(text.find("p=0.25"), std::string::npos);
}

TEST(Circuit, SelfTargetTwoQubitOpDies)
{
    Circuit c(2);
    EXPECT_DEATH(c.cx(1, 1), "distinct");
    EXPECT_DEATH(c.depolarize2(0, 0, 0.1), "distinct");
}

TEST(Circuit, AppendedRepetitionBlocksDecodeCorrectly)
{
    // Build a two-round repetition experiment via append() and verify
    // it behaves identically to the inline construction.
    Circuit round_block(3);
    for (std::uint32_t q = 0; q < 2; ++q)
        round_block.xError(q, 0.1);
    round_block.cx(0, 2);
    round_block.cx(1, 2);
    round_block.measureReset(2);

    Circuit total(3);
    total.append(round_block);
    total.detector({0});
    total.append(round_block);
    total.detector({0, 1});

    EXPECT_TRUE(findNondeterminism(total).empty());
    // The sampled oracle misses a single coin with odds 2^-31 at 32 runs.
    EXPECT_TRUE(TableauSimulator::checkDetectorsDeterministic(total, 32));
    EXPECT_EQ(total.numDetectors(), 2u);
}

} // namespace
} // namespace stab
} // namespace hetarch
