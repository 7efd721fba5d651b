/**
 * @file
 * Tests for detector-error-model extraction, cross-validated against
 * direct frame sampling, and for the determinism check its reverse
 * walk carries, cross-validated against the sampled tableau oracle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/logging.hh"
#include "core/rng.hh"
#include "stab/circuit.hh"
#include "stab/dem.hh"
#include "stab/frame.hh"
#include "stab/tableau.hh"
#include "support/packed_samples.hh"

namespace hetarch {
namespace stab {
namespace {

TEST(Dem, SingleXErrorSingleDetector)
{
    Circuit c(1);
    c.xError(0, 0.1);
    c.detector({c.measure(0)});

    const auto dem = buildDetectorErrorModel(c);
    ASSERT_EQ(dem.mechanisms.size(), 1u);
    EXPECT_NEAR(dem.mechanisms[0].probability, 0.1, 1e-12);
    ASSERT_EQ(dem.mechanisms[0].detectors.size(), 1u);
    EXPECT_EQ(dem.mechanisms[0].detectors[0], 0u);
}

TEST(Dem, ZErrorBeforeZMeasurementDropsOut)
{
    Circuit c(1);
    c.zError(0, 0.3);
    c.detector({c.measure(0)});
    const auto dem = buildDetectorErrorModel(c);
    EXPECT_TRUE(dem.mechanisms.empty());
}

TEST(Dem, HadamardRoutesZToDetector)
{
    // H|0> = |+> measures randomly; the second H brings back |0>.
    Circuit c(1);
    c.h(0);
    c.zError(0, 0.25);
    c.h(0);
    c.detector({c.measure(0)});
    const auto dem = buildDetectorErrorModel(c);
    ASSERT_EQ(dem.mechanisms.size(), 1u);
    EXPECT_NEAR(dem.mechanisms[0].probability, 0.25, 1e-12);
}

TEST(Dem, CnotPropagatesToTwoDetectors)
{
    Circuit c(2);
    c.xError(0, 0.1);
    c.cx(0, 1);
    c.detector({c.measure(0)});
    c.detector({c.measure(1)});
    const auto dem = buildDetectorErrorModel(c);
    ASSERT_EQ(dem.mechanisms.size(), 1u);
    EXPECT_EQ(dem.mechanisms[0].detectors.size(), 2u);
}

TEST(Dem, DepolarizeSplitsIntoComponents)
{
    Circuit c(1);
    c.depolarize1(0, 0.3);
    c.detector({c.measure(0)});
    const auto dem = buildDetectorErrorModel(c);
    // X and Y both flip the measurement and merge into one mechanism:
    // p = p/3 + p/3 - 2 p^2/9.
    ASSERT_EQ(dem.mechanisms.size(), 1u);
    const double p3 = 0.1;
    EXPECT_NEAR(dem.mechanisms[0].probability,
                p3 + p3 - 2 * p3 * p3, 1e-12);
}

TEST(Dem, ObservableMaskRecorded)
{
    Circuit c(1);
    c.xError(0, 0.2);
    const auto m = c.measure(0);
    c.detector({m});
    c.observableInclude(3, {m});
    const auto dem = buildDetectorErrorModel(c);
    ASSERT_EQ(dem.mechanisms.size(), 1u);
    EXPECT_EQ(dem.mechanisms[0].observables, 1u << 3);
    EXPECT_EQ(dem.numObservables, 4u);
}

TEST(Dem, AnnotationsOutOfIdOrderAndRepeatedReferences)
{
    // Observable 0 names m0 before detectors 0 and 1 do, so m0's
    // annotations arrive out of id order; detector 1 names m1 twice
    // and observable 1 names it in two includes, so both cancel and
    // an X error on q1 flips nothing.
    Circuit c(2);
    c.xError(0, 0.1);
    c.xError(1, 0.2);
    const auto m0 = c.measure(0);
    const auto m1 = c.measure(1);
    c.observableInclude(0, {m0});
    c.detector({m0});
    c.detector({m1, m0, m1});
    c.observableInclude(1, {m1});
    c.observableInclude(1, {m1});
    EXPECT_TRUE(findNondeterminism(c).empty());

    const auto dem = buildDetectorErrorModel(c);
    ASSERT_EQ(dem.mechanisms.size(), 1u);
    EXPECT_NEAR(dem.mechanisms[0].probability, 0.1, 1e-12);
    EXPECT_EQ(std::vector<std::uint32_t>(
                  dem.mechanisms[0].detectors.begin(),
                  dem.mechanisms[0].detectors.end()),
              (std::vector<std::uint32_t>{0, 1}));
    EXPECT_EQ(dem.mechanisms[0].observables, 1u);
}

TEST(Dem, IdenticalMechanismsMerge)
{
    Circuit c(1);
    c.xError(0, 0.1);
    c.xError(0, 0.2);
    c.detector({c.measure(0)});
    const auto dem = buildDetectorErrorModel(c);
    ASSERT_EQ(dem.mechanisms.size(), 1u);
    EXPECT_NEAR(dem.mechanisms[0].probability,
                0.1 * 0.8 + 0.2 * 0.9, 1e-12);
}

TEST(Dem, ResetErasesSensitivity)
{
    Circuit c(1);
    c.xError(0, 0.4);
    c.reset(0);
    c.detector({c.measure(0)});
    const auto dem = buildDetectorErrorModel(c);
    EXPECT_TRUE(dem.mechanisms.empty());
}

TEST(Dem, MeasureResetSeparatesRounds)
{
    // Two rounds of ancilla reuse: an error in round 1 should flip
    // only round-1-adjacent detectors.
    Circuit c(2);
    c.xError(0, 0.1);
    c.cx(0, 1);
    const auto m1 = c.measureReset(1);
    c.cx(0, 1);
    const auto m2 = c.measureReset(1);
    c.detector({m1});
    c.detector({m1, m2});
    const auto dem = buildDetectorErrorModel(c);
    // X on q0 flips both measurements; detector 1 (m1 xor m2) stays 0,
    // detector 0 fires.
    ASSERT_EQ(dem.mechanisms.size(), 1u);
    ASSERT_EQ(dem.mechanisms[0].detectors.size(), 1u);
    EXPECT_EQ(dem.mechanisms[0].detectors[0], 0u);
}

/** Shared helper: compare DEM-sampled and frame-sampled marginals. */
void
expectDemMatchesFrame(const Circuit& c, std::uint64_t seed)
{
    const auto dem = buildDetectorErrorModel(c);
    FrameSimulator frame(c);

    const std::size_t shots = 40000;
    Rng rng_f(seed);
    const auto fs = frame.sampleDetectors(shots, rng_f);

    std::vector<double> frame_rate(fs.numDetectors, 0.0);
    std::vector<double> dem_rate(fs.numDetectors, 0.0);
    double frame_obs = 0.0, dem_obs = 0.0;

    for (std::size_t s = 0; s < shots; ++s) {
        for (std::size_t d = 0; d < fs.numDetectors; ++d)
            frame_rate[d] += detBit(fs, s, d);
        if (fs.numObservables)
            frame_obs += obsBit(fs, s, 0);
    }
    Rng rng_d(seed + 1);
    for (std::size_t s = 0; s < shots; ++s) {
        const auto [dets, obs] = dem.sample(rng_d);
        for (std::size_t d = 0; d < dets.size(); ++d)
            dem_rate[d] += dets[d];
        dem_obs += obs & 1;
    }
    for (std::size_t d = 0; d < fs.numDetectors; ++d) {
        EXPECT_NEAR(frame_rate[d] / shots, dem_rate[d] / shots, 0.015)
            << "detector " << d;
    }
    if (fs.numObservables) {
        EXPECT_NEAR(frame_obs / shots, dem_obs / shots, 0.015);
    }
}

TEST(Dem, MatchesFrameSamplerOnMixedNoiseCircuit)
{
    Circuit c(4);
    c.h(0);
    c.depolarize1(0, 0.05);
    c.cx(0, 1);
    c.depolarize2(0, 1, 0.08);
    c.cx(1, 2);
    c.pauliChannel1(2, 0.02, 0.03, 0.04);
    c.cx(2, 3);
    c.xError(3, 0.06);
    const auto m0 = c.measure(0);
    const auto m1 = c.measure(1);
    const auto m2 = c.measure(2);
    const auto m3 = c.measure(3);
    c.detector({m0, m1});
    c.detector({m1, m2});
    c.detector({m2, m3});
    // One GHZ qubit alone is a coin; the parity of two is not.
    c.observableInclude(0, {m2, m3});
    expectDemMatchesFrame(c, 404);
}

TEST(Dem, MatchesFrameSamplerWithAncillaReuse)
{
    Circuit c(3);
    for (int round = 0; round < 3; ++round) {
        c.depolarize1(0, 0.04);
        c.depolarize1(1, 0.04);
        c.cx(0, 2);
        c.cx(1, 2);
        c.measureReset(2);
    }
    // Detectors: first round absolute, then consecutive diffs.
    c.detector({0});
    c.detector({0, 1});
    c.detector({1, 2});
    const auto mf0 = c.measure(0);
    c.observableInclude(0, {mf0});
    expectDemMatchesFrame(c, 707);
}

TEST(Dem, TotalWeightReflectsNoise)
{
    Circuit quiet(1);
    quiet.detector({quiet.measure(0)});
    EXPECT_DOUBLE_EQ(buildDetectorErrorModel(quiet).totalErrorWeight(), 0.0);

    Circuit noisy(1);
    noisy.xError(0, 0.5);
    noisy.detector({noisy.measure(0)});
    EXPECT_GT(buildDetectorErrorModel(noisy).totalErrorWeight(), 0.4);
}

/** A mechanism's detector ids as a vector. */
std::vector<std::uint32_t>
detectorIds(const DetectorErrorModel& dem, std::size_t mechanism)
{
    const auto& dets = dem.mechanisms[mechanism].detectors;
    return {dets.begin(), dets.end()};
}

/**
 * Two X errors: q0's flips detectors {0, 1} and observable 0, q1's
 * flips detector 1 and observables 0 and 1.
 */
DetectorErrorModel
twoMechanismDem()
{
    Circuit c(2);
    c.xError(0, 0.1);
    c.xError(1, 0.2);
    const auto m0 = c.measure(0);
    const auto m1 = c.measure(1);
    c.detector({m0});
    c.detector({m0, m1});
    c.observableInclude(0, {m0, m1});
    c.observableInclude(1, {m1});
    return buildDetectorErrorModel(c);
}

TEST(Dem, ApplyMechanismsXorsDetectorSetsAndMasks)
{
    const auto dem = twoMechanismDem();
    ASSERT_EQ(dem.mechanisms.size(), 2u);
    EXPECT_EQ(detectorIds(dem, 0), (std::vector<std::uint32_t>{0, 1}));
    EXPECT_EQ(dem.mechanisms[0].observables, 1u);
    EXPECT_EQ(detectorIds(dem, 1), (std::vector<std::uint32_t>{1}));
    EXPECT_EQ(dem.mechanisms[1].observables, 3u);

    const auto [one, one_obs] = dem.applyMechanisms({1});
    EXPECT_EQ(one, (std::vector<std::uint8_t>{0, 1}));
    EXPECT_EQ(one_obs, 3u);

    // Detector 1 and observable 0 are flipped by both: they cancel.
    const auto [both, both_obs] = dem.applyMechanisms({1, 0});
    EXPECT_EQ(both, (std::vector<std::uint8_t>{1, 0}));
    EXPECT_EQ(both_obs, 2u);

    const auto [none, none_obs] = dem.applyMechanisms({});
    EXPECT_EQ(none, (std::vector<std::uint8_t>{0, 0}));
    EXPECT_EQ(none_obs, 0u);
}

TEST(Dem, ApplyMechanismsRepeatedIndexCancels)
{
    const auto dem = twoMechanismDem();
    const auto [twice, twice_obs] = dem.applyMechanisms({0, 0});
    EXPECT_EQ(twice, (std::vector<std::uint8_t>{0, 0}));
    EXPECT_EQ(twice_obs, 0u);

    const auto [thrice, thrice_obs] = dem.applyMechanisms({0, 1, 0, 0});
    EXPECT_EQ(thrice, (std::vector<std::uint8_t>{1, 0}));
    EXPECT_EQ(thrice_obs, 2u);
}

TEST(Dem, ApplyMechanismsRefusesIndexOutOfRange)
{
    const auto dem = twoMechanismDem();
    EXPECT_DEATH(dem.applyMechanisms({0, 2}), "out of range");
}

TEST(Dem, DetectorFlipCountsFindDeadDetector)
{
    // q1 is noiseless, so detector 1 (its lone record) can never fire.
    Circuit c(3);
    c.xError(0, 0.1);
    c.xError(2, 0.2);
    const auto m0 = c.measure(0);
    const auto m1 = c.measure(1);
    const auto m2 = c.measure(2);
    c.detector({m0});
    c.detector({m1});
    c.detector({m0, m2});
    const auto dem = buildDetectorErrorModel(c);
    ASSERT_EQ(dem.mechanisms.size(), 2u);
    EXPECT_EQ(dem.detectorFlipCounts(),
              (std::vector<std::uint32_t>{1, 0, 2}));

    Circuit quiet(1);
    quiet.detector({quiet.measure(0)});
    EXPECT_EQ(buildDetectorErrorModel(quiet).detectorFlipCounts(),
              (std::vector<std::uint32_t>{0}));
}

TEST(Dem, RefusesNondeterministicCircuit)
{
    // Measuring |+> is a coin flip: no DEM describes that detector.
    Circuit c(1);
    c.h(0);
    c.detector({c.measure(0)});
    ScopedFatalCapture capture;
    try {
        buildDetectorErrorModel(c);
        FAIL() << "a nondeterministic detector got a DEM";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find(
                      "detector 0 is not deterministic"),
                  std::string::npos)
            << e.what();
    }
}

/**
 * An unstructured random circuit: 2-6 qubits and 5-45 ops drawn from
 * H/S/SDG/X/Y/CX/CZ/SWAP/M/R/MR/DEPOL1, then 1-6 detectors over 1-3
 * records (about half of them differences of one qubit's consecutive
 * records) and sometimes one observable.  Nothing makes the
 * annotations deterministic, so both verdicts come up.
 */
Circuit
randomUnstructuredCircuit(std::uint64_t seed)
{
    Rng rng(seed);
    const auto nq = static_cast<std::uint32_t>(2 + rng.uniformInt(5));
    auto qubit = [&] {
        return static_cast<std::uint32_t>(rng.uniformInt(nq));
    };
    Circuit c(nq);
    std::vector<std::vector<std::size_t>> records(nq); // per qubit
    const std::size_t n_ops = 5 + rng.uniformInt(41);
    for (std::size_t i = 0; i < n_ops; ++i) {
        const auto q = qubit();
        const auto r = static_cast<std::uint32_t>(
            (q + 1 + rng.uniformInt(nq - 1)) % nq); // r != q
        switch (rng.uniformInt(12)) {
          case 0: c.h(q); break;
          case 1: c.s(q); break;
          case 2: c.sdg(q); break;
          case 3: c.x(q); break;
          case 4: c.y(q); break;
          case 5: c.cx(q, r); break;
          case 6: c.cz(q, r); break;
          case 7: c.swap(q, r); break;
          case 8: records[q].push_back(c.measure(q)); break;
          case 9: c.reset(q); break;
          case 10: records[q].push_back(c.measureReset(q)); break;
          default: c.depolarize1(q, 0.1); break;
        }
    }
    if (c.numMeasurements() == 0) {
        const auto q = qubit();
        records[q].push_back(c.measure(q));
    }
    auto some_records = [&] {
        std::vector<std::size_t> out(1 + rng.uniformInt(3));
        for (auto& m : out)
            m = rng.uniformInt(c.numMeasurements());
        return out;
    };
    const std::size_t n_dets = 1 + rng.uniformInt(6);
    for (std::size_t d = 0; d < n_dets; ++d) {
        const auto& own = records[qubit()];
        if (rng.bernoulli(0.5) && own.size() >= 2) {
            const auto k = rng.uniformInt(own.size() - 1);
            c.detector({own[k], own[k + 1]});
        } else {
            c.detector(some_records());
        }
    }
    if (rng.bernoulli(0.4))
        c.observableInclude(0, some_records());
    return c;
}

/** @p c with one annotation left: detector or observable @p index. */
Circuit
keepOnly(const Circuit& c, bool observable, std::uint32_t index)
{
    Circuit out(c.numQubits());
    std::uint32_t det = 0;
    for (const auto& op : c.ops()) {
        bool keep = true;
        if (op.code == OpCode::DETECTOR)
            keep = !observable && det++ == index;
        else if (op.code == OpCode::OBSERVABLE)
            keep = observable && op.id == index;
        if (keep)
            out.appendOp(op);
    }
    return out;
}

TEST(Dem, FindNondeterminismMatchesTableauOracle)
{
    std::size_t verdicts[2] = {0, 0}; // deterministic, random
    for (std::uint64_t seed = 0; seed < 300; ++seed) {
        const auto c = randomUnstructuredCircuit(seed);
        const auto found = findNondeterminism(c);
        auto check = [&](bool observable, std::uint32_t index) {
            const bool random = std::any_of(
                found.begin(), found.end(), [&](const auto& n) {
                    return n.observable == observable && n.index == index;
                });
            // 32 random-outcome runs miss a coin with odds 2^-31.
            const bool sampled_random =
                !TableauSimulator::checkDetectorsDeterministic(
                    keepOnly(c, observable, index), 32);
            EXPECT_EQ(random, sampled_random)
                << "seed " << seed
                << (observable ? " observable " : " detector ") << index
                << "\n" << c.toString();
            ++verdicts[random];
        };
        for (std::uint32_t d = 0; d < c.numDetectors(); ++d)
            check(false, d);
        for (std::uint32_t k = 0; k < c.numObservables(); ++k)
            check(true, k);

        // The DEM builder runs the same walk: it refuses exactly these.
        ScopedFatalCapture capture;
        bool refused = false;
        try {
            buildDetectorErrorModel(c);
        } catch (const FatalError&) {
            refused = true;
        }
        EXPECT_EQ(refused, !found.empty()) << "seed " << seed;
    }
    EXPECT_GT(verdicts[0], 0u);
    EXPECT_GT(verdicts[1], 0u);
}

} // namespace
} // namespace stab
} // namespace hetarch
