/**
 * @file
 * Union-find against an independent oracle: the exact minimum-weight
 * matcher in tests/support/exact_matcher.hh.
 *
 *   - The matcher itself decodes every single DEM mechanism of the d = 3
 *     and d = 5 surface memory circuits back to its own observables.
 *   - On fixed seeds, union-find fails at most kMaxRatio times as often
 *     as the matcher over the shots both can decode (at most
 *     ExactMatcher::kMaxDefects defects on each graph): d = 3 at Fig. 6
 *     noise (p2 = 1e-2, p1 = 1e-3, T1 = T2 = 0.1 ms) and d = 5 below
 *     threshold (p2 = 5e-3, p1 = 5e-4, T1 = T2 = 0.5 ms), 100k shots
 *     each.  Measured on these seeds: 3,953 vs 3,266 failures (ratio
 *     1.21) at d = 3 and 565 vs 499 (1.13, 28 shots skipped) at
 *     d = 5.  Union-find approximates minimum-weight matching; a ratio
 *     near 1 is its near-optimality claim, and a growth or peeling bug
 *     shows up as a ratio well above it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <vector>

#include "core/rng.hh"
#include "core/units.hh"
#include "qec/decoder_cache.hh"
#include "qec/noise_model.hh"
#include "qec/surface_circuit.hh"
#include "qec/union_find.hh"
#include "stab/frame.hh"
#include "support/exact_matcher.hh"
#include "support/packed_samples.hh"

namespace hetarch {
namespace qec {
namespace {

using namespace units;

/** Bound on union-find failures over matcher failures. */
constexpr double kMaxRatio = 1.3;

CircuitNoise
noisePoint(double p2, double t_ms)
{
    CircuitNoise noise;
    noise.p2 = p2;
    noise.p1 = p2 / 10.0;
    noise.dataT1 = noise.dataT2 = t_ms * ms;
    noise.ancT1 = noise.ancT2 = t_ms * ms;
    return noise;
}

/** Matcher prediction for a fired-detector list on both graphs. */
std::uint32_t
matchBoth(const DecoderSetup& setup, const ExactMatcher& mz,
          const ExactMatcher& mx, const std::vector<std::uint32_t>& fired)
{
    std::vector<std::uint32_t> nz, nx;
    setup.graphZ.projectSparse(fired, nz);
    setup.graphX.projectSparse(fired, nx);
    return mz.decode(nz) ^ mx.decode(nx);
}

TEST(DecoderOracle, MatcherCorrectsEverySingleMechanism)
{
    for (const std::size_t d : {3ul, 5ul}) {
        const auto circuit = surfaceMemoryZ(d, d, noisePoint(5e-3, 0.5));
        const auto setup =
            DecoderSetup::build(circuit, DecoderKind::UnionFind);
        const ExactMatcher mz(setup->graphZ), mx(setup->graphX);
        std::size_t checked = 0;
        for (const auto& mech : setup->dem.mechanisms) {
            EXPECT_EQ(matchBoth(*setup, mz, mx, mech.detectors),
                      mech.observables)
                << "d=" << d << " mechanism with p=" << mech.probability;
            ++checked;
        }
        EXPECT_GT(checked, 0u);
    }
}

struct OraclePoint
{
    std::size_t distance;
    double p2;
    double tMs;
    std::uint64_t seed;
};

TEST(DecoderOracle, UnionFindNearMinimumWeightMatching)
{
    constexpr std::size_t kShots = 100000;
    constexpr std::size_t kChunk = 4096;
    for (const OraclePoint point :
         {OraclePoint{3, 1e-2, 0.1, 31}, OraclePoint{5, 5e-3, 0.5, 53}}) {
        const auto circuit = surfaceMemoryZ(
            point.distance, point.distance, noisePoint(point.p2, point.tMs));
        const auto setup =
            DecoderSetup::build(circuit, DecoderKind::UnionFind);
        const ExactMatcher mz(setup->graphZ), mx(setup->graphX);
        UnionFindDecoder uz(setup->graphZ), ux(setup->graphX);
        const stab::FrameSimulator frame(circuit);
        Rng rng(point.seed);

        std::size_t compared = 0, skipped = 0;
        std::size_t uf_failures = 0, exact_failures = 0;
        std::vector<std::uint32_t> nz, nx;
        for (std::size_t done = 0; done < kShots; done += kChunk) {
            const auto samples =
                frame.sampleDetectors(std::min(kChunk, kShots - done), rng);
            const auto fired = firedDetectors(samples);
            for (std::size_t s = 0; s < samples.shots; ++s) {
                nz.clear();
                nx.clear();
                setup->graphZ.projectSparse(fired[s], nz);
                setup->graphX.projectSparse(fired[s], nx);
                if (nz.size() > ExactMatcher::kMaxDefects ||
                    nx.size() > ExactMatcher::kMaxDefects) {
                    ++skipped;
                    continue;
                }
                std::uint32_t actual = 0;
                for (std::size_t k = 0; k < samples.numObservables; ++k)
                    actual |= static_cast<std::uint32_t>(
                                  obsBit(samples, s, k))
                              << k;
                const std::uint32_t uf =
                    uz.decodeSparse(nz) ^ ux.decodeSparse(nx);
                const std::uint32_t exact = mz.decode(nz) ^ mx.decode(nx);
                uf_failures += uf != actual;
                exact_failures += exact != actual;
                ++compared;
            }
        }

        std::cout << "d=" << point.distance << ": union-find "
                  << uf_failures << " vs exact matching " << exact_failures
                  << " failures over " << compared << " shots (" << skipped
                  << " skipped), ratio "
                  << static_cast<double>(uf_failures) /
                         static_cast<double>(exact_failures)
                  << "\n";
        // The comparison covers the operating point, not a tail of it.
        EXPECT_LT(skipped, kShots / 100) << "d=" << point.distance;
        ASSERT_GT(exact_failures, 0u) << "d=" << point.distance;
        EXPECT_LE(static_cast<double>(uf_failures),
                  kMaxRatio * static_cast<double>(exact_failures))
            << "d=" << point.distance;
    }
}

} // namespace
} // namespace qec
} // namespace hetarch
