/**
 * @file
 * Statistical checks of the frame sampler under RNG contract v2
 * (frame_program.hh).  Bit-level tests pin what a seed samples; these
 * pin that it samples the right distribution:
 *
 *   - per-lane firing rates of X_ERROR(p) at p in {1e-3, 0.05, 0.5},
 *     with no correlation between adjacent lanes (including lane 63 of
 *     one word and lane 0 of the next) or adjacent ops, which is where
 *     an off-by-one in the gap arithmetic would show;
 *   - the Pauli split of DEPOL1 (thirds), PAULI1 (its components) and
 *     DEPOL2 (fifteenths), on both the sparse path and the p >= 1
 *     path that draws no gaps;
 *   - per-detector marginals of surfaceMemoryZ at d in {3, 5}, at
 *     Fig. 6 and sub-threshold noise, against the DEM.
 *
 * Confidence: every check is a two-sided bound of kSigmas = 5 standard
 * deviations of the statistic under a correct sampler, so one check
 * fails by chance with probability 5.7e-7 and the whole file (519
 * checks) with probability below 3e-4.  Seeds are fixed, so a run
 * is reproducible; shot counts are sized so that 5 sigma is a small
 * fraction of each expected count (stated per test).  A check that
 * fails under a changed sampler must be fixed by resizing its shots or
 * its tolerance from this confidence, never by picking a new seed.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/rng.hh"
#include "core/units.hh"
#include "qec/noise_model.hh"
#include "qec/surface_circuit.hh"
#include "stab/circuit.hh"
#include "stab/dem.hh"
#include "stab/frame.hh"

namespace hetarch {
namespace stab {
namespace {

constexpr double kSigmas = 5.0;

/**
 * |observed - mean| <= kSigmas * sd + slack, with context on failure.
 * @p slack covers a known bias of the prediction itself.
 */
void
expectWithinSigmas(double observed, double mean, double sd,
                   const std::string& what, double slack = 0.0)
{
    const double bound = kSigmas * sd + slack;
    EXPECT_LE(std::abs(observed - mean), bound)
        << what << ": observed " << observed << ", expected " << mean
        << " +- " << bound;
}

/** Count of successes out of @p n Bernoulli(@p p) trials. */
void
expectBinomial(std::uint64_t observed, double n, double p,
               const std::string& what)
{
    expectWithinSigmas(static_cast<double>(observed), n * p,
                       std::sqrt(n * p * (1.0 - p)), what);
}

/**
 * Count of adjacent both-one pairs along chains of @p len Bernoulli(p)
 * trials, @p chains chains.  Overlapping pairs share a trial, so the
 * variance carries the covariance of neighbouring pairs:
 * Var = (len-1)(p^2 - p^4) + 2(len-2)(p^3 - p^4) per chain.
 */
void
expectAdjacentPairs(std::uint64_t observed, double chains, double len,
                    double p, const std::string& what)
{
    const double p2 = p * p, p3 = p2 * p, p4 = p2 * p2;
    const double var =
        chains * ((len - 1) * (p2 - p4) + 2 * (len - 2) * (p3 - p4));
    expectWithinSigmas(static_cast<double>(observed),
                       chains * (len - 1) * p2, std::sqrt(var), what);
}

/** Number of shots in which detector @p d fired. */
std::uint64_t
firedCount(const DetectorSamples& s, std::size_t d)
{
    std::uint64_t n = 0;
    for (std::size_t w = 0; w < s.numWords; ++w)
        n += static_cast<std::uint64_t>(std::popcount(s.detWord(d, w)));
    return n;
}

// --- X_ERROR lanes -------------------------------------------------

class XErrorLanes : public ::testing::TestWithParam<double>
{
};

TEST_P(XErrorLanes, AreIndependentBernoulliPerLane)
{
    // kQubits X_ERROR(p) ops back to back, each read out by its own
    // detector, so each detector bit is one Bernoulli(p) trial.  Each
    // lane gets kQubits * kWords = 524288 trials: at p = 1e-3 that is
    // ~524 expected events with 5 sigma = 22%, enough to see a lane
    // that never errs or errs twice as often (the word-edge bugs).
    constexpr std::size_t kQubits = 32;
    constexpr std::size_t kWords = 16384;
    constexpr std::size_t kShots = kWords * 64;
    const double p = GetParam();
    Circuit c(kQubits);
    for (std::uint32_t q = 0; q < kQubits; ++q)
        c.xError(q, p);
    for (std::uint32_t q = 0; q < kQubits; ++q)
        c.detector({c.measure(q)});
    Rng rng(20260517);
    const auto s = FrameSimulator(c).sampleDetectors(kShots, rng);

    std::vector<std::uint64_t> lane_hits(64, 0);
    std::uint64_t lane_pairs = 0; // shots s and s+1, same op
    std::uint64_t edge_pairs = 0; // lane 63 of word w, lane 0 of w+1
    std::uint64_t op_pairs = 0;   // ops q and q+1, same shot
    for (std::size_t q = 0; q < kQubits; ++q) {
        for (std::size_t w = 0; w < kWords; ++w) {
            const std::uint64_t word = s.detWord(q, w);
            for (std::uint64_t bits = word; bits; bits &= bits - 1)
                ++lane_hits[static_cast<std::size_t>(
                    std::countr_zero(bits))];
            lane_pairs += static_cast<std::uint64_t>(
                std::popcount(word & (word >> 1)));
            if (w + 1 < kWords) {
                const std::uint64_t edge =
                    (word >> 63) & s.detWord(q, w + 1) & 1;
                edge_pairs += edge;
                lane_pairs += edge;
            }
            if (q + 1 < kQubits)
                op_pairs += static_cast<std::uint64_t>(
                    std::popcount(word & s.detWord(q + 1, w)));
        }
    }

    const auto tag = [&](const std::string& what) {
        return what + " at p=" + std::to_string(p);
    };
    for (std::size_t lane = 0; lane < 64; ++lane)
        expectBinomial(lane_hits[lane], kQubits * kWords, p,
                       tag("lane " + std::to_string(lane) + " rate"));
    expectAdjacentPairs(lane_pairs, kQubits, kShots, p,
                        tag("adjacent-lane pairs"));
    expectBinomial(edge_pairs, kQubits * (kWords - 1), p * p,
                   tag("word-edge pairs"));
    expectAdjacentPairs(op_pairs, kShots, kQubits, p,
                        tag("adjacent-op pairs"));
}

INSTANTIATE_TEST_SUITE_P(Contract2, XErrorLanes,
                         ::testing::Values(1e-3, 0.05, 0.5));

// --- Pauli splits ----------------------------------------------------

/**
 * Read out the X and Z frame of every data qubit of a channel through
 * ancillas (CX/H draw no randomness, so the gadget does not disturb
 * the channel's draws): detector 2q is qubit q's X flip, 2q+1 its Z
 * flip.  See frame_program_test.cc's depol2ProbeCircuit.
 */
void
appendPauliProbe(Circuit& c, std::uint32_t data_qubits)
{
    for (std::uint32_t q = 0; q < data_qubits; ++q) {
        const std::uint32_t ax = data_qubits + 2 * q;
        const std::uint32_t az = ax + 1;
        c.cx(q, ax);
        c.detector({c.measure(ax)});
        c.cx(az, q);
        c.h(az);
        c.detector({c.measure(az)});
    }
}

/**
 * Per-shot Pauli code of the probed data qubits: bit 2q is qubit q's
 * X flip, bit 2q+1 its Z flip.  Returns a histogram over codes.
 */
std::vector<std::uint64_t>
pauliHistogram(const DetectorSamples& s)
{
    std::vector<std::uint64_t> hist(std::size_t{1} << s.numDetectors, 0);
    for (std::size_t w = 0; w < s.numWords; ++w) {
        for (unsigned lane = 0; lane < 64; ++lane) {
            std::size_t code = 0;
            for (std::size_t d = 0; d < s.numDetectors; ++d)
                code |= ((s.detWord(d, w) >> lane) & 1) << d;
            ++hist[code];
        }
    }
    return hist;
}

constexpr std::size_t kSplitShots = std::size_t{1} << 20;

TEST(PauliSplit, Depol1ErrsAtRateAndSplitsIntoThirds)
{
    // p = 0.01: ~10.5k events, thirds known to 5 sigma = 7%; p = 1:
    // every lane errs without gap draws, thirds to 0.7%.
    for (const double p : {0.01, 1.0}) {
        Circuit c(3);
        c.depolarize1(0, p);
        appendPauliProbe(c, 1);
        Rng rng(4242);
        const auto hist =
            pauliHistogram(FrameSimulator(c).sampleDetectors(kSplitShots,
                                                             rng));
        const std::uint64_t errs = hist[1] + hist[2] + hist[3];
        const std::string at = " at p=" + std::to_string(p);
        expectBinomial(errs, kSplitShots, p, "DEPOL1 error count" + at);
        const double n = static_cast<double>(errs);
        expectBinomial(hist[0b01], n, 1.0 / 3.0, "DEPOL1 X share" + at);
        expectBinomial(hist[0b11], n, 1.0 / 3.0, "DEPOL1 Y share" + at);
        expectBinomial(hist[0b10], n, 1.0 / 3.0, "DEPOL1 Z share" + at);
    }
}

TEST(PauliSplit, Pauli1SelectsEachComponentAtItsRate)
{
    // Components of 2-5% over 2^20 shots: 5 sigma is 2-3% of each
    // expected count.  The second channel sums to 1 and takes the
    // certain path, where only the thresholds pick the Pauli.
    struct Channel
    {
        double px, py, pz;
    };
    for (const Channel ch : {Channel{0.02, 0.05, 0.03},
                             Channel{0.2, 0.3, 0.5}}) {
        Circuit c(3);
        c.pauliChannel1(0, ch.px, ch.py, ch.pz);
        appendPauliProbe(c, 1);
        Rng rng(777);
        const auto hist =
            pauliHistogram(FrameSimulator(c).sampleDetectors(kSplitShots,
                                                             rng));
        const std::string at = " of PAULI1(" + std::to_string(ch.px) +
                               ", " + std::to_string(ch.py) + ", " +
                               std::to_string(ch.pz) + ")";
        expectBinomial(hist[0b01], kSplitShots, ch.px, "X rate" + at);
        expectBinomial(hist[0b11], kSplitShots, ch.py, "Y rate" + at);
        expectBinomial(hist[0b10], kSplitShots, ch.pz, "Z rate" + at);
    }
}

TEST(PauliSplit, Depol2SplitsIntoFifteenths)
{
    // p = 0.15 over 2^20 shots: each of the 15 Paulis has ~10.5k
    // expected events, 5 sigma = 5%.
    const double p = 0.15;
    Circuit c(6);
    c.depolarize2(0, 1, p);
    appendPauliProbe(c, 2);
    Rng rng(99);
    const auto hist = pauliHistogram(
        FrameSimulator(c).sampleDetectors(kSplitShots, rng));
    expectBinomial(hist[0], kSplitShots, 1.0 - p, "DEPOL2 identity");
    for (std::size_t code = 1; code < 16; ++code)
        expectBinomial(hist[code], kSplitShots, p / 15.0,
                       "DEPOL2 Pauli " + std::to_string(code));
}

// --- surface-code detector marginals ---------------------------------

/**
 * The DEM treats each channel's Pauli components as independent
 * mechanisms, which runs O(p) relative low against exclusive channels
 * (about 0.5% at p2 = 1e-2).  Marginals may deviate by this share of
 * the prediction on top of the sampling bound.
 */
constexpr double kDemModelAllowance = 0.02;

struct MarginalCase
{
    const char* name;
    std::size_t distance;
    double p2;
    double coherenceMs;
    std::size_t shots;
};

/** Names the case in test listings (ctest shows it as the suffix). */
void
PrintTo(const MarginalCase& mc, std::ostream* os)
{
    *os << mc.name;
}

class SurfaceMarginals : public ::testing::TestWithParam<MarginalCase>
{
};

TEST_P(SurfaceMarginals, EveryDetectorMatchesTheDem)
{
    // Detector rates are a few percent at Fig. 6 noise and about 1%
    // sub-threshold; the shot counts put 5 sigma at roughly 5-15% of
    // each detector's expected count.
    const auto& mc = GetParam();
    qec::CircuitNoise noise;
    noise.p2 = mc.p2;
    noise.p1 = mc.p2 / 10.0;
    noise.dataT1 = noise.dataT2 = mc.coherenceMs * units::ms;
    noise.ancT1 = noise.ancT2 = mc.coherenceMs * units::ms;
    const auto circuit = qec::surfaceMemoryZ(mc.distance, mc.distance,
                                             noise);
    const auto dem = buildDetectorErrorModel(circuit);
    std::vector<double> clean(dem.numDetectors, 1.0);
    for (const auto& mech : dem.mechanisms)
        for (const auto d : mech.detectors)
            clean[d] *= 1.0 - 2.0 * mech.probability;

    Rng rng(31415);
    const auto s = FrameSimulator(circuit).sampleDetectors(mc.shots, rng);
    const double n = static_cast<double>(mc.shots);
    for (std::size_t d = 0; d < dem.numDetectors; ++d) {
        const double rate = (1.0 - clean[d]) / 2.0;
        expectWithinSigmas(static_cast<double>(firedCount(s, d)), n * rate,
                           std::sqrt(n * rate * (1.0 - rate)),
                           std::string(mc.name) + " detector " +
                               std::to_string(d),
                           kDemModelAllowance * n * rate);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Contract2, SurfaceMarginals,
    ::testing::Values(MarginalCase{"d3_fig6", 3, 1e-2, 0.1, 1u << 16},
                      MarginalCase{"d5_fig6", 5, 1e-2, 0.1, 1u << 16},
                      MarginalCase{"d3_sub", 3, 1e-3, 0.5, 1u << 18},
                      MarginalCase{"d5_sub", 5, 1e-3, 0.5, 1u << 18}));

} // namespace
} // namespace stab
} // namespace hetarch
