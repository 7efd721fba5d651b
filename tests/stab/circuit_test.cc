/**
 * @file
 * Tests for the circuit IR builder: measurement-record bookkeeping,
 * qubit growth, validation, and the flat op storage read back.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "stab/circuit.hh"

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

TEST(Circuit, OpsReadBackFromTheArenas)
{
    Circuit c(3);
    c.h(2);
    c.pauliChannel1(0, 0.1, 0.2, 0.3);
    c.cx(0, 1);
    const auto m = c.measure(1);
    c.detector({m}, 7);
    c.observableInclude(2, {m, m});

    const auto& ops = c.ops();
    ASSERT_EQ(ops.size(), 6u);
    EXPECT_EQ(ops[0].code, OpCode::H);
    EXPECT_EQ(ops[0].targets, (std::vector<std::uint32_t>{2}));
    EXPECT_TRUE(ops[0].params.empty());
    EXPECT_EQ(ops[1].targets, (std::vector<std::uint32_t>{0}));
    EXPECT_EQ(std::vector<double>(ops[1].params.begin(), ops[1].params.end()),
              (std::vector<double>{0.1, 0.2, 0.3}));
    EXPECT_EQ(ops[2].targets, (std::vector<std::uint32_t>{0, 1}));
    EXPECT_EQ(ops[4].code, OpCode::DETECTOR);
    EXPECT_EQ(ops[4].id, 7u);
    EXPECT_EQ(ops[4].targets, (std::vector<std::uint32_t>{0}));
    EXPECT_EQ(ops[5].id, 2u);
    EXPECT_EQ(ops[5].targets, (std::vector<std::uint32_t>{0, 0}));
    EXPECT_TRUE(ops[5].params.empty());

    std::size_t visited = 0;
    for (const auto& op : ops)
        EXPECT_EQ(op.code, ops[visited++].code);
    EXPECT_EQ(visited, ops.size());
}

TEST(Circuit, AppendOpCopiesAViewOfItsOwnOps)
{
    // Each append grows the arenas the view points into, so appendOp
    // must copy the view before it writes.
    Circuit c(2);
    c.depolarize2(0, 1, 0.25);
    const auto m = c.measure(1);
    c.detector({m}, 3);
    for (int k = 0; k < 100; ++k)
        c.appendOp(c.ops()[k % 3]);
    ASSERT_EQ(c.size(), 103u);
    EXPECT_EQ(c.numDetectors(), 34u);
    EXPECT_EQ(c.numMeasurements(), 34u);
    for (std::size_t i = 0; i < c.size(); ++i) {
        const auto op = c.ops()[i];
        EXPECT_EQ(op.code, c.ops()[i % 3].code);
        EXPECT_EQ(op.targets, c.ops()[i % 3].targets);
    }
    EXPECT_EQ(c.ops()[101].id, 3u);
    EXPECT_EQ(c.ops()[99].params[0], 0.25);
}

} // namespace
} // namespace stab
} // namespace hetarch
