/**
 * @file
 * Property tests on random Clifford circuits: the batched Pauli-frame
 * sampler, the exact tableau simulator, and the detector-error-model
 * sampler must agree on detector marginals for *any* circuit whose
 * detectors are noise-deterministic.  Parameterized over random seeds.
 */

#include <gtest/gtest.h>

#include "core/rng.hh"
#include "stab/circuit.hh"
#include "stab/dem.hh"
#include "stab/frame.hh"
#include "stab/tableau.hh"
#include "support/packed_samples.hh"

namespace hetarch {
namespace stab {
namespace {

/**
 * Random syndrome-extraction-like circuit: a few data qubits, a few
 * ancillas measured twice with difference detectors, random Clifford
 * scrambling in between, and noise sprinkled throughout.  Detectors
 * built this way are deterministic by construction.
 */
Circuit
randomCircuit(std::uint64_t seed)
{
    Rng rng(seed);
    const std::size_t n_data = 3 + rng.uniformInt(3);
    const std::size_t n_anc = 2 + rng.uniformInt(2);
    Circuit c(n_data + n_anc);

    auto random_clifford_layer = [&]() {
        for (std::uint32_t q = 0; q < n_data; ++q) {
            switch (rng.uniformInt(4)) {
              case 0: c.h(q); break;
              case 1: c.s(q); break;
              case 2: break;
              default: {
                const auto other = static_cast<std::uint32_t>(
                    rng.uniformInt(n_data));
                if (other != q)
                    c.cx(q, other);
                break;
              }
            }
        }
    };
    auto noise_layer = [&]() {
        for (std::uint32_t q = 0; q < n_data; ++q) {
            if (rng.bernoulli(0.5))
                c.depolarize1(q, 0.02 + 0.05 * rng.uniform());
            if (rng.bernoulli(0.3))
                c.xError(q, 0.05 * rng.uniform());
        }
    };

    random_clifford_layer();

    // Two rounds of identical random stabilizer-ish measurements with
    // difference detectors.
    std::vector<std::vector<std::uint32_t>> supports(n_anc);
    for (std::size_t a = 0; a < n_anc; ++a) {
        const std::size_t w = 1 + rng.uniformInt(3);
        for (std::size_t i = 0; i < w; ++i) {
            supports[a].push_back(
                static_cast<std::uint32_t>(rng.uniformInt(n_data)));
        }
    }
    std::vector<std::size_t> first(n_anc);
    for (int round = 0; round < 2; ++round) {
        noise_layer();
        for (std::size_t a = 0; a < n_anc; ++a) {
            const auto anc = static_cast<std::uint32_t>(n_data + a);
            for (auto q : supports[a])
                c.cx(q, anc);
            const auto m = c.measureReset(anc);
            if (round == 0)
                first[a] = m;
            else
                c.detector({first[a], m});
        }
    }
    // Observable: parity of two consecutive Z readouts of qubit 0,
    // which is deterministic (zero) without noise but sensitive to X
    // errors in between.
    const auto m_first = c.measure(0);
    for (std::uint32_t q = 0; q < n_data; ++q)
        c.xError(q, 0.02);
    const auto m_second = c.measure(0);
    c.observableInclude(0, {m_first, m_second});
    return c;
}

class RandomCircuitAgreement : public ::testing::TestWithParam<int>
{
};

TEST_P(RandomCircuitAgreement, DetectorsAreDeterministic)
{
    const auto c = randomCircuit(1000 + GetParam());
    EXPECT_TRUE(findNondeterminism(c).empty());
    // The sampled oracle misses a single coin with odds 2^-31 at 32 runs.
    EXPECT_TRUE(TableauSimulator::checkDetectorsDeterministic(c, 32));
}

TEST_P(RandomCircuitAgreement, FrameMatchesTableauMarginals)
{
    const auto c = randomCircuit(1000 + GetParam());

    const std::size_t frame_shots = 20000;
    FrameSimulator frame(c);
    Rng rng_f(1 + GetParam());
    const auto fs = frame.sampleDetectors(frame_shots, rng_f);

    const std::size_t tab_shots = 3000;
    Rng rng_t(2 + GetParam());
    std::vector<double> tab_rate(c.numDetectors(), 0.0);
    for (std::size_t s = 0; s < tab_shots; ++s) {
        TableauSimulator sim(c.numQubits());
        const auto record = sim.run(c, rng_t);
        const auto [dets, obs] =
            TableauSimulator::annotationsFromRecord(c, record);
        for (std::size_t d = 0; d < dets.size(); ++d)
            tab_rate[d] += dets[d];
    }
    for (std::size_t d = 0; d < c.numDetectors(); ++d) {
        double frame_rate = 0.0;
        for (std::size_t s = 0; s < frame_shots; ++s)
            frame_rate += detBit(fs, s, d);
        EXPECT_NEAR(frame_rate / frame_shots, tab_rate[d] / tab_shots,
                    0.035)
            << "detector " << d << " seed " << GetParam();
    }
}

TEST_P(RandomCircuitAgreement, DemMatchesFrameMarginals)
{
    const auto c = randomCircuit(1000 + GetParam());
    const auto dem = buildDetectorErrorModel(c);

    const std::size_t shots = 20000;
    FrameSimulator frame(c);
    Rng rng_f(3 + GetParam());
    const auto fs = frame.sampleDetectors(shots, rng_f);

    Rng rng_d(4 + GetParam());
    std::vector<double> dem_rate(c.numDetectors(), 0.0);
    for (std::size_t s = 0; s < shots; ++s) {
        const auto [dets, obs] = dem.sample(rng_d);
        for (std::size_t d = 0; d < dets.size(); ++d)
            dem_rate[d] += dets[d];
    }
    for (std::size_t d = 0; d < c.numDetectors(); ++d) {
        double frame_rate = 0.0;
        for (std::size_t s = 0; s < shots; ++s)
            frame_rate += detBit(fs, s, d);
        EXPECT_NEAR(frame_rate / shots, dem_rate[d] / shots, 0.025)
            << "detector " << d << " seed " << GetParam();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCircuitAgreement,
                         ::testing::Range(0, 8));

} // namespace
} // namespace stab
} // namespace hetarch
