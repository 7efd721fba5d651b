/**
 * @file
 * Tests for standard-cell characterization via density-matrix
 * simulation.
 */

#include <gtest/gtest.h>

#include "cells/characterize.hh"
#include "cells/standard_cells.hh"
#include "core/units.hh"
#include "devices/device.hh"

namespace hetarch {
namespace cells {
namespace {

using namespace units;

TEST(Characterize, RegisterLoadErrorSmallButNonzero)
{
    const auto cell = makeRegister(devices::multimodeResonator3D(),
                                   devices::fixedFrequencyTransmon());
    const auto ch = characterizeRegister(cell);
    const auto& load = ch.op("load");
    EXPECT_DOUBLE_EQ(load.duration, 400.0);
    EXPECT_GT(load.errorRate, 0.0);
    EXPECT_LT(load.errorRate, 1e-2);
}

TEST(Characterize, RegisterIdleScalesWithTs)
{
    const auto fast = characterizeRegister(
        makeRegister(devices::storageWithCoherence(0.5 * ms),
                     devices::fixedFrequencyTransmon()));
    const auto slow = characterizeRegister(
        makeRegister(devices::storageWithCoherence(50.0 * ms),
                     devices::fixedFrequencyTransmon()));
    EXPECT_GT(fast.op("idle-1us").errorRate,
              slow.op("idle-1us").errorRate);
    // 100x longer coherence -> ~100x lower idle error.
    const double ratio = fast.op("idle-1us").errorRate /
                         slow.op("idle-1us").errorRate;
    EXPECT_NEAR(ratio, 100.0, 15.0);
}

TEST(Characterize, RegisterRoundtripComposesLoadUnload)
{
    const auto ch = characterizeRegister(
        makeRegister(devices::multimodeResonator3D(),
                     devices::fixedFrequencyTransmon()));
    const double composed = 1.0 -
        (1.0 - ch.op("load").errorRate) *
        (1.0 - ch.op("unload").errorRate);
    EXPECT_NEAR(ch.op("roundtrip").errorRate, composed, 1e-12);
}

TEST(Characterize, ParCheckTimesAndErrors)
{
    const auto cell = makeParCheck(devices::fixedFrequencyTransmon());
    const auto ch = characterizeParCheck(cell);
    EXPECT_DOUBLE_EQ(ch.op("cnot").duration, 100.0);
    EXPECT_DOUBLE_EQ(ch.op("parity-check").duration, 100.0 + 1000.0);
    EXPECT_GT(ch.op("parity-check").errorRate, ch.op("cnot").errorRate);
}

TEST(Characterize, SeqOpStoredCnot)
{
    const auto cell = makeSeqOp(devices::multimodeResonator3D(),
                                devices::fixedFrequencyTransmon());
    const auto ch = characterizeSeqOp(cell);
    // 2 swaps (400 ns each) + CNOT (100 ns).
    EXPECT_DOUBLE_EQ(ch.op("stored-cnot").duration, 900.0);
    EXPECT_GT(ch.op("verified-cnot").duration,
              ch.op("stored-cnot").duration);
    EXPECT_GT(ch.op("verified-cnot").errorRate,
              ch.op("stored-cnot").errorRate);
}

TEST(Characterize, UscCheckScalesWithWeight)
{
    const auto cell = makeUsc(devices::multimodeResonator3D(),
                              devices::fixedFrequencyTransmon());
    const auto ch = characterizeUsc(cell);
    const auto& w2 = ch.op("stabilizer-check-w2");
    const auto& w4 = ch.op("stabilizer-check-w4");
    const auto& w6 = ch.op("stabilizer-check-w6");
    EXPECT_LT(w2.duration, w4.duration);
    EXPECT_LT(w4.duration, w6.duration);
    EXPECT_LT(w2.errorRate, w4.errorRate);
    EXPECT_LT(w4.errorRate, w6.errorRate);
}

TEST(Characterize, BetterStorageImprovesUscChecks)
{
    const auto transmon = devices::fixedFrequencyTransmon();
    const auto bad = characterizeUsc(
        makeUsc(devices::storageWithCoherence(0.5 * ms), transmon));
    const auto good = characterizeUsc(
        makeUsc(devices::storageWithCoherence(50.0 * ms), transmon));
    EXPECT_GT(bad.op("stabilizer-check-w4").errorRate,
              good.op("stabilizer-check-w4").errorRate);
}

TEST(Characterize, MissingOpIsFatal)
{
    const auto ch = characterizeParCheck(
        makeParCheck(devices::fixedFrequencyTransmon()));
    EXPECT_DEATH(ch.op("no-such-op"), "no characterized op");
}

} // namespace
} // namespace cells
} // namespace hetarch
