/**
 * @file
 * Test-side helpers over bit-packed stab::DetectorSamples.
 *
 * The library reads samples only as packed words (detWord / obsWord).
 * Tests also spot-check single bits, count or list fired detectors per
 * shot, compare the shot-major uint8 layout, and sample through explicit
 * block widths, the stream or a scalar reference interpreter; those
 * helpers live here (bench_ablate_sampler reuses sampleAtWidth).  They
 * are free functions in namespace stab, so argument-dependent lookup
 * finds them from any test namespace.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/logging.hh"
#include "core/rng.hh"
#include "stab/frame.hh"
#include "stab/frame_program.hh"

namespace hetarch {
namespace stab {

/** Whether detector @p d fired in shot @p shot. */
inline std::uint8_t
detBit(const DetectorSamples& s, std::size_t shot, std::size_t d)
{
    HETARCH_DEBUG_ASSERT(shot < s.shots && d < s.numDetectors,
                         "detector sample (", shot, ",", d,
                         ") out of range");
    return static_cast<std::uint8_t>(
        (s.detWords[d * s.numWords + shot / 64] >> (shot % 64)) & 1);
}

/** Observable @p k's value in shot @p shot. */
inline std::uint8_t
obsBit(const DetectorSamples& s, std::size_t shot, std::size_t k)
{
    HETARCH_DEBUG_ASSERT(shot < s.shots && k < s.numObservables,
                         "observable sample (", shot, ",", k,
                         ") out of range");
    return static_cast<std::uint8_t>(
        (s.obsWords[k * s.numWords + shot / 64] >> (shot % 64)) & 1);
}

/** Number of fired detectors in shot @p shot (popcount column). */
inline std::size_t
shotWeight(const DetectorSamples& s, std::size_t shot)
{
    HETARCH_DEBUG_ASSERT(shot < s.shots, "shot ", shot, " out of range");
    const std::size_t w = shot / 64;
    const std::uint64_t bit = std::uint64_t{1} << (shot % 64);
    std::size_t weight = 0;
    for (std::size_t d = 0; d < s.numDetectors; ++d)
        weight += (s.detWords[d * s.numWords + w] & bit) != 0;
    return weight;
}

/** Each shot's fired detector ids, ascending: out[shot]. */
inline std::vector<std::vector<std::uint32_t>>
firedDetectors(const DetectorSamples& s)
{
    std::vector<std::vector<std::uint32_t>> out(s.shots);
    for (std::size_t shot = 0; shot < s.shots; ++shot)
        for (std::uint32_t d = 0; d < s.numDetectors; ++d)
            if (detBit(s, shot, d))
                out[shot].push_back(d);
    return out;
}

/** Shot-major layout: detectors[shot * numDetectors + d]. */
inline std::vector<std::uint8_t>
unpackedDetectors(const DetectorSamples& s)
{
    std::vector<std::uint8_t> out(s.shots * s.numDetectors);
    for (std::size_t shot = 0; shot < s.shots; ++shot)
        for (std::size_t d = 0; d < s.numDetectors; ++d)
            out[shot * s.numDetectors + d] = detBit(s, shot, d);
    return out;
}

/** observables[shot * numObservables + k]; see unpackedDetectors. */
inline std::vector<std::uint8_t>
unpackedObservables(const DetectorSamples& s)
{
    std::vector<std::uint8_t> out(s.shots * s.numObservables);
    for (std::size_t shot = 0; shot < s.shots; ++shot)
        for (std::size_t k = 0; k < s.numObservables; ++k)
            out[shot * s.numObservables + k] = obsBit(s, shot, k);
    return out;
}

/**
 * FrameSimulator::sampleDetectors at an explicit block width: the same
 * resolve -> replay -> fold calls over @p words-word blocks, without
 * the sampler telemetry.  Adds the applied error-lane count to
 * @p flips when given.
 */
inline DetectorSamples
sampleAtWidth(const FrameProgram& prog, std::size_t shots,
              std::size_t words, Rng& rng, std::uint64_t* flips = nullptr)
{
    DetectorSamples out;
    out.resize(shots, prog.numDetectors(), prog.numObservables());
    FrameBlockScratch scratch;
    for (std::size_t w0 = 0; w0 < out.numWords; w0 += words) {
        const std::size_t n = std::min(words, out.numWords - w0);
        const std::uint64_t f = prog.resolveNoiseTape(scratch, n, rng);
        if (flips)
            *flips += f;
        prog.replayBlock(scratch);
        const std::size_t last_lanes =
            std::min<std::size_t>(64, shots - (w0 + n - 1) * 64);
        const std::uint64_t mask =
            last_lanes == 64 ? ~std::uint64_t{0}
                             : (std::uint64_t{1} << last_lanes) - 1;
        prog.foldAnnotationsBlock(scratch, mask, out.detWords.data() + w0,
                                  out.numWords, out.obsWords.data() + w0,
                                  out.numWords);
    }
    return out;
}

/**
 * Reference sampler, independent of the block kernels: interpret the
 * compiled ops over one 64-shot word at a time with scalar frame
 * updates, resolving noise straight from RNG contract v2
 * (frame_program.hh) by a linear inverse-CDF scan instead of the
 * events, the search buckets, replayBlock or foldAnnotationsBlock.  A
 * wrong kernel row shows up as a bit difference against it.
 */
inline DetectorSamples
sampleByInterpreter(const FrameProgram& prog, std::size_t shots, Rng& rng)
{
    DetectorSamples out;
    out.resize(shots, prog.numDetectors(), prog.numObservables());
    // Erring lanes of one word, in increasing order; pick(bit) draws
    // each one's Pauli.  Returns the erring-lane mask.
    const auto erringLanes = [&rng](const NoiseChannel& ch, auto&& pick) {
        std::uint64_t err = 0;
        for (unsigned lane = 0; lane < 64; ++lane) {
            if (!ch.certain) {
                const std::uint64_t r = rng();
                if (r >= ch.erring[64 - lane]) // none of the rest errs
                    break;
                unsigned run = 0; // largest k with erring[k] <= r
                while (ch.erring[run + 1] <= r)
                    ++run;
                lane += run;
            }
            err |= std::uint64_t{1} << lane;
            pick(std::uint64_t{1} << lane);
        }
        return err;
    };
    std::vector<std::uint64_t> x(prog.numQubits()), z(prog.numQubits());
    std::vector<std::uint64_t> meas;
    for (std::size_t w = 0; w < out.numWords; ++w) {
        std::fill(x.begin(), x.end(), 0);
        std::fill(z.begin(), z.end(), 0);
        meas.clear();
        for (const FrameOp& op : prog.ops()) {
            switch (op.code) {
              case FrameOpCode::H:
                std::swap(x[op.a], z[op.a]);
                continue;
              case FrameOpCode::SGate:
                z[op.a] ^= x[op.a];
                continue;
              case FrameOpCode::CX:
                x[op.b] ^= x[op.a];
                z[op.a] ^= z[op.b];
                continue;
              case FrameOpCode::CZ:
                z[op.a] ^= x[op.b];
                z[op.b] ^= x[op.a];
                continue;
              case FrameOpCode::Swap:
                std::swap(x[op.a], x[op.b]);
                std::swap(z[op.a], z[op.b]);
                continue;
              case FrameOpCode::M:
                meas.push_back(x[op.a]);
                z[op.a] ^= rng(); // collapse randomizes the frame phase
                continue;
              case FrameOpCode::R:
                x[op.a] = z[op.a] = 0;
                continue;
              case FrameOpCode::MR:
                meas.push_back(x[op.a]);
                x[op.a] = z[op.a] = 0;
                continue;
              default:
                break; // a noise op
            }
            const NoiseChannel& ch = prog.noiseChannels()[op.channel];
            std::uint64_t fx = 0, fz = 0, gx = 0, gz = 0;
            const std::uint64_t err = erringLanes(ch, [&](std::uint64_t bit) {
                if (op.code == FrameOpCode::Depol1) {
                    const std::uint64_t k = rng.uniformInt(3); // X, Y, Z
                    fx |= k != 2 ? bit : 0;
                    fz |= k != 0 ? bit : 0;
                } else if (op.code == FrameOpCode::Pauli1) {
                    const double u = rng.uniform(); // X | Y | Z
                    fx |= u < ch.pickXY ? bit : 0;
                    fz |= u >= ch.pickX ? bit : 0;
                } else if (op.code == FrameOpCode::Depol2) {
                    // Bits of 1..15 are (X_a, Z_a, X_b, Z_b).
                    const std::uint64_t v = 1 + rng.uniformInt(15);
                    fx |= v & 1 ? bit : 0;
                    fz |= v & 2 ? bit : 0;
                    gx |= v & 4 ? bit : 0;
                    gz |= v & 8 ? bit : 0;
                }
            });
            if (op.code == FrameOpCode::XError)
                fx = err;
            if (op.code == FrameOpCode::ZError)
                fz = err;
            x[op.a] ^= fx;
            z[op.a] ^= fz;
            if (op.code == FrameOpCode::Depol2) {
                x[op.b] ^= gx;
                z[op.b] ^= gz;
            }
        }
        const std::size_t live = std::min<std::size_t>(64, shots - w * 64);
        const std::uint64_t mask =
            live == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << live) - 1;
        for (std::size_t d = 0; d < prog.numDetectors(); ++d) {
            std::uint64_t word = 0;
            for (auto m = prog.detMeasBegin(d); m != prog.detMeasEnd(d); ++m)
                word ^= meas[*m];
            out.detWords[d * out.numWords + w] = word & mask;
        }
        for (std::size_t k = 0; k < prog.numObservables(); ++k) {
            std::uint64_t word = 0;
            for (auto m = prog.obsMeasBegin(k); m != prog.obsMeasEnd(k); ++m)
                word ^= meas[*m];
            out.obsWords[k * out.numWords + w] = word & mask;
        }
    }
    return out;
}

/**
 * Drain a DetectorStream over @p shots and reassemble its blocks into
 * packed samples (observable shares XOR-accumulated per batch).
 */
inline DetectorSamples
sampleByStream(const std::shared_ptr<const FrameProgram>& prog,
               std::size_t shots, Rng& rng)
{
    DetectorSamples out;
    out.resize(shots, prog->numDetectors(), prog->numObservables());
    DetectorStream stream(prog, shots);
    SyndromeBlock block;
    while (stream.next(rng, block)) {
        for (std::size_t i = 0; i < block.detWords.size(); ++i)
            out.detWords[(block.detBegin + i) * out.numWords +
                         block.batch] = block.detWords[i];
        for (std::size_t k = 0; k < block.obsWords.size(); ++k)
            out.obsWords[k * out.numWords + block.batch] ^=
                block.obsWords[k];
    }
    return out;
}

} // namespace stab
} // namespace hetarch
