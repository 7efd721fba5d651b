/**
 * @file
 * Tests for the Pauli-frame sampler, including cross-validation against
 * the tableau simulator on noisy circuits.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "stab/circuit.hh"
#include "stab/dem.hh"
#include "stab/frame.hh"
#include "stab/tableau.hh"
#include "support/packed_samples.hh"

namespace hetarch {
namespace stab {
namespace {

/** Repetition-code memory circuit with X noise on data. */
Circuit
repetitionCircuit(int distance, int rounds, double p)
{
    // Data qubits 0..d-1, ancillas d..2d-2.
    Circuit c(static_cast<std::size_t>(2 * distance - 1));
    const auto d = static_cast<std::uint32_t>(distance);
    std::vector<std::size_t> prev(distance - 1, SIZE_MAX);

    for (int r = 0; r < rounds; ++r) {
        for (std::uint32_t i = 0; i < d; ++i)
            c.xError(i, p);
        for (std::uint32_t a = 0; a + 1 < d; ++a) {
            const std::uint32_t anc = d + a;
            c.cx(a, anc);
            c.cx(a + 1, anc);
            const auto m = c.measureReset(anc);
            if (prev[a] == SIZE_MAX)
                c.detector({m});
            else
                c.detector({prev[a], m});
            prev[a] = m;
        }
    }
    // Final data readout.
    std::vector<std::size_t> final_meas(distance);
    for (std::uint32_t i = 0; i < d; ++i)
        final_meas[i] = c.measure(i);
    for (std::uint32_t a = 0; a + 1 < d; ++a)
        c.detector({final_meas[a], final_meas[a + 1], prev[a]});
    c.observableInclude(0, {final_meas[0]});
    return c;
}

TEST(Frame, NoiselessCircuitHasQuietDetectors)
{
    auto c = repetitionCircuit(3, 3, 0.0);
    FrameSimulator sim(c);
    Rng rng(1);
    const auto samples = sim.sampleDetectors(256, rng);
    for (std::size_t s = 0; s < samples.shots; ++s) {
        for (std::size_t d = 0; d < samples.numDetectors; ++d)
            EXPECT_EQ(detBit(samples, s, d), 0);
        EXPECT_EQ(obsBit(samples, s, 0), 0);
    }
}

TEST(Frame, DetectorsAreDeterministicPrecondition)
{
    auto c = repetitionCircuit(3, 3, 0.05);
    EXPECT_TRUE(findNondeterminism(c).empty());
    // The sampled oracle misses a single coin with odds 2^-31 at 32 runs.
    EXPECT_TRUE(TableauSimulator::checkDetectorsDeterministic(c, 32));
}

TEST(Frame, CertainErrorFiresDetector)
{
    Circuit c(2);
    c.xError(0, 1.0);
    c.cx(0, 1);
    const auto m = c.measureReset(1);
    c.detector({m});
    FrameSimulator sim(c);
    Rng rng(5);
    const auto samples = sim.sampleDetectors(64, rng);
    for (std::size_t s = 0; s < 64; ++s)
        EXPECT_EQ(detBit(samples, s, 0), 1);
}

TEST(Frame, ZErrorInvisibleToZMeasurement)
{
    Circuit c(1);
    c.zError(0, 1.0);
    const auto m = c.measure(0);
    c.detector({m});
    FrameSimulator sim(c);
    Rng rng(5);
    const auto samples = sim.sampleDetectors(64, rng);
    for (std::size_t s = 0; s < 64; ++s)
        EXPECT_EQ(detBit(samples, s, 0), 0);
}

TEST(Frame, HadamardConvertsZToX)
{
    Circuit c(1);
    c.zError(0, 1.0);
    c.h(0);
    const auto m = c.measure(0);
    c.detector({m});
    FrameSimulator sim(c);
    Rng rng(5);
    const auto samples = sim.sampleDetectors(64, rng);
    for (std::size_t s = 0; s < 64; ++s)
        EXPECT_EQ(detBit(samples, s, 0), 1);
}

TEST(Frame, ErrorRateMatchesInjectedProbability)
{
    Circuit c(1);
    const double p = 0.2;
    c.xError(0, p);
    const auto m = c.measure(0);
    c.detector({m});
    FrameSimulator sim(c);
    Rng rng(17);
    const auto samples = sim.sampleDetectors(20000, rng);
    std::size_t fired = 0;
    for (std::size_t s = 0; s < samples.shots; ++s)
        fired += detBit(samples, s, 0);
    EXPECT_NEAR(static_cast<double>(fired) / samples.shots, p, 0.01);
}

TEST(Frame, MatchesTableauOnNoisyRepetitionCode)
{
    // Cross-validate per-detector marginal firing rates between the
    // frame sampler and the exact tableau simulator.
    auto c = repetitionCircuit(3, 2, 0.08);
    const std::size_t shots = 30000;

    FrameSimulator frame(c);
    Rng rng_f(101);
    const auto fs = frame.sampleDetectors(shots, rng_f);

    std::vector<double> frame_rate(fs.numDetectors, 0.0);
    double frame_obs = 0.0;
    for (std::size_t s = 0; s < shots; ++s) {
        for (std::size_t d = 0; d < fs.numDetectors; ++d)
            frame_rate[d] += detBit(fs, s, d);
        frame_obs += obsBit(fs, s, 0);
    }

    Rng rng_t(202);
    std::vector<double> tab_rate(fs.numDetectors, 0.0);
    double tab_obs = 0.0;
    // Tableau reference outcomes differ from noisy outcomes only by
    // the frame, and detectors cancel the reference, so annotation
    // values can be compared directly.
    for (std::size_t s = 0; s < shots / 10; ++s) {
        TableauSimulator sim(c.numQubits());
        const auto record = sim.run(c, rng_t);
        const auto [dets, obs] =
            TableauSimulator::annotationsFromRecord(c, record);
        for (std::size_t d = 0; d < dets.size(); ++d)
            tab_rate[d] += dets[d];
        tab_obs += obs[0];
    }

    for (std::size_t d = 0; d < fs.numDetectors; ++d) {
        const double fr = frame_rate[d] / static_cast<double>(shots);
        const double tr = tab_rate[d] / static_cast<double>(shots / 10);
        EXPECT_NEAR(fr, tr, 0.02) << "detector " << d;
    }
    EXPECT_NEAR(frame_obs / static_cast<double>(shots),
                tab_obs / static_cast<double>(shots / 10), 0.02);
}

TEST(Frame, Depolarize2ProducesBothSidedErrors)
{
    Circuit c(2);
    c.depolarize2(0, 1, 1.0);
    const auto m0 = c.measure(0);
    const auto m1 = c.measure(1);
    c.detector({m0});
    c.detector({m1});
    FrameSimulator sim(c);
    Rng rng(3);
    const auto samples = sim.sampleDetectors(20000, rng);
    double r0 = 0, r1 = 0;
    for (std::size_t s = 0; s < samples.shots; ++s) {
        r0 += detBit(samples, s, 0);
        r1 += detBit(samples, s, 1);
    }
    // 8 of 15 non-identity Paulis flip qubit a's Z measurement (X or Y
    // on a), same for b.
    EXPECT_NEAR(r0 / samples.shots, 8.0 / 15.0, 0.02);
    EXPECT_NEAR(r1 / samples.shots, 8.0 / 15.0, 0.02);
}

TEST(Frame, PauliChannelSelectsComponents)
{
    // Only Z component -> no Z-measurement flip; only X -> always flip.
    Circuit cz_only(1);
    cz_only.pauliChannel1(0, 0.0, 0.0, 1.0);
    cz_only.detector({cz_only.measure(0)});
    FrameSimulator sim_z(cz_only);
    Rng rng(9);
    const auto sz = sim_z.sampleDetectors(128, rng);
    for (std::size_t s = 0; s < 128; ++s)
        EXPECT_EQ(detBit(sz, s, 0), 0);

    Circuit cx_only(1);
    cx_only.pauliChannel1(0, 1.0, 0.0, 0.0);
    cx_only.detector({cx_only.measure(0)});
    FrameSimulator sim_x(cx_only);
    const auto sx = sim_x.sampleDetectors(128, rng);
    for (std::size_t s = 0; s < 128; ++s)
        EXPECT_EQ(detBit(sx, s, 0), 1);
}

TEST(Frame, ObservableAccumulatesAcrossIncludes)
{
    Circuit c(2);
    c.xError(0, 1.0);
    const auto m0 = c.measure(0);
    const auto m1 = c.measure(1);
    c.observableInclude(0, {m0});
    c.observableInclude(0, {m1}); // no flip; XOR total should stay 1
    FrameSimulator sim(c);
    Rng rng(2);
    const auto samples = sim.sampleDetectors(64, rng);
    for (std::size_t s = 0; s < 64; ++s)
        EXPECT_EQ(obsBit(samples, s, 0), 1);
}

} // namespace
} // namespace stab
} // namespace hetarch
