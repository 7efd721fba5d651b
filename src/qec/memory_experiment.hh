/**
 * @file
 * End-to-end memory-experiment harness: circuit -> detector error
 * model -> Monte-Carlo sampling -> decoding -> logical error rate.
 *
 * Sampling and decoding run on the hetarch::exec engine: the shot
 * budget is split into 64-shot-aligned chunks, each chunk samples with
 * its own Rng::deriveStream child generator and decodes immediately,
 * so peak syndrome storage is one chunk (not the whole experiment) and
 * results are bit-identical for any thread count.
 */

#pragma once

#include <cstdint>

#include "core/rng.hh"
#include "qec/decoder_cache.hh"
#include "qec/noise_model.hh"
#include "stab/circuit.hh"
#include "stab/frame.hh"

namespace hetarch {
namespace qec {

/** Result of a decoded Monte-Carlo memory experiment. */
struct MemoryResult
{
    std::size_t shots = 0;
    std::size_t failures = 0;
    std::size_t rounds = 1;

    /** Logical error probability per shot. */
    double perShot() const
    {
        return shots ? static_cast<double>(failures) /
                           static_cast<double>(shots)
                     : 0.0;
    }
    /**
     * Logical error rate per round, from
     * P_shot = (1 - (1 - 2 p_round)^rounds) / 2.
     */
    double perRound() const;

    /** Exact comparison — the determinism contract is bit-identical. */
    bool operator==(const MemoryResult& o) const
    {
        return shots == o.shots && failures == o.failures &&
               rounds == o.rounds;
    }
};

/**
 * Sample @p shots shots of @p circuit, decode each, and count shots
 * where the decoder's prediction disagrees with *any* recorded
 * observable (all observables are XOR-compared, not just observable 0).
 *
 * For DecoderKind::UnionFind the circuit's detectors must be tagged
 * (kTagZ/kTagX).  Only the graph that carries the observable is
 * decoded: the setup builds the other graph with empty observable
 * masks, so it could only ever predict 0.
 *
 * Draws exactly one word from @p rng (the experiment's base stream
 * id); all sampling randomness is derived from it per chunk, so the
 * result depends only on the rng state at entry — not on the thread
 * count.  The shot-independent decoding setup comes from the shared
 * DecoderCache.
 */
MemoryResult runMemoryExperiment(const stab::Circuit& circuit,
                                 std::size_t shots, std::size_t rounds,
                                 DecoderKind decoder, Rng& rng);

/**
 * Decode every shot of a pre-sampled buffer against @p setup and count
 * logical failures (all observables compared).  This is the per-chunk
 * kernel of runMemoryExperiment, exposed so tests can cross-check the
 * chunked path against a whole-buffer decode.
 *
 * Shots are consumed straight from the packed buffer by
 * SlidingWindowDecoder::decodeBuffer: one detector-major pass collects
 * every shot's fired detectors, weight-0 shots bypass the decoder
 * entirely (counted by qec.decode.trivial_shots), and the rest are
 * decoded through the sparse entry points (decodeSparse), union-find
 * on the observable-carrying graph only.  Also publishes the qec.decode.*
 * counters, the syndrome-weight histogram and the advisory
 * qec.decode_chunk_ns timer.
 */
std::size_t countLogicalFailures(const DecoderSetup& setup,
                                 DecoderKind decoder,
                                 const stab::DetectorSamples& samples);

/**
 * Convenience: logical error per cycle of the rotated surface code
 * memory-Z experiment (Figs. 6 and 7 of the paper).
 */
double surfaceLogicalErrorPerRound(std::size_t distance,
                                   std::size_t rounds,
                                   const CircuitNoise& noise,
                                   std::size_t shots, std::uint64_t seed);

} // namespace qec
} // namespace hetarch
