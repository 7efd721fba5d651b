/**
 * @file
 * Compiled frame programs: a Circuit lowered once into flat op lists
 * plus sparse detector/observable XOR masks.
 *
 * The Pauli-frame sampler used to re-interpret the full op list per
 * 64-shot batch — including the annotation ops it skips — and then
 * re-scan it a second time to fold measurement flips into detectors.
 * A FrameProgram hoists all of that out of the hot loop:
 *
 *   - unitary/noise/measure ops become compact FrameOps in two dense
 *     lists, the noise-free ops that replay walks and the
 *     RNG-consuming ops (noise and M) that resolution walks, and ops
 *     that neither touch the frame nor consume randomness (bare
 *     Paulis, annotations, zero-probability PAULI1) are dropped
 *     entirely;
 *   - every distinct noise channel gets one NoiseChannel of
 *     precomputed constants that its ops index, so the per-op cost of
 *     a d=13 circuit's ~20k noise ops is one index, not one table;
 *   - DETECTOR/OBSERVABLE annotations become CSR lists of
 *     measurement-record indices, so folding a batch is one sparse XOR
 *     pass over packed words instead of an op-list scan.
 *
 * Noise is resolved under RNG contract v2, which fixes what every
 * generator word means and so what a seed samples:
 *
 *   - 64-shot words are resolved one after another, and within a word
 *     the RNG-consuming ops run in stream order;
 *   - M draws one word, the collapse mask of the frame's Z component;
 *   - a noise op with error probability p < 1 draws one 64-bit word r,
 *     read as the uniform u = 1 - r / 2^64 on (0, 1].  No lane errs iff
 *     u <= (1-p)^64, the common case below threshold, which costs one
 *     integer compare against a precomputed threshold.  Otherwise the
 *     first erring lane is the largest k with u <= (1-p)^k (the
 *     geometric gap's inverse CDF), and each later erring lane comes
 *     from one more word by the same rule over the lanes that remain
 *     (Gidney's sparse Bernoulli sampling, Quantum 5, 497, 2021).  The
 *     gap after lane 63 is never drawn.  Thresholds carry full double
 *     precision, no logarithm is taken per draw, and u is never 0;
 *   - p >= 1 errs every lane without drawing a gap;
 *   - each erring lane of a Pauli channel then picks its Pauli with
 *     one exact draw: DEPOL1 uniformInt(3) over X, Y, Z; DEPOL2
 *     1 + uniformInt(15) over the non-identity two-qubit Paulis;
 *     PAULI1 one uniform against the channel's cumulative X, X+Y
 *     thresholds.
 *
 * Cost per 64-shot word is one draw per noise op plus O(error events).
 * No resolution step reads frame state, so the draws of a word are fixed
 * before any frame update; that is what lets the block path resolve a
 * whole block first and replay it afterwards, and what makes samples
 * bit-identical across block widths, worker counts and the streaming
 * path.
 *
 * Resolution keeps only what errs.  A noise op whose word draws no error
 * leaves nothing behind; an erring one leaves one noise event per
 * non-zero flip mask: the frame row it flips, the mask, and the op's
 * replay site, the index of the first noise-free op after it.  Replay
 * walks the noise-free ops alone and applies each event just before its
 * site, so a clean noise op costs one draw and nothing else.  The
 * collapse word of every M lands in a dense row of its own.
 */

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/rng.hh"
#include "stab/circuit.hh"

namespace hetarch {
namespace stab {

/** Compact opcode set of the compiled frame stream. */
enum class FrameOpCode : std::uint8_t
{
    H,       ///< swap x/z on qubit a
    SGate,   ///< S or SDG: z ^= x on qubit a
    CX,      ///< a = control, b = target
    CZ,
    Swap,
    M,       ///< record x[a]; one rng draw collapses the z frame
    R,       ///< clear x/z on qubit a
    MR,      ///< record x[a], then clear (no rng draw)
    XError,  ///< X flip on erring lanes
    ZError,  ///< Z flip on erring lanes
    Pauli1,  ///< X/Y/Z per the channel's pick thresholds
    Depol1,  ///< uniform X/Y/Z on erring lanes
    Depol2,  ///< qubits a/b, uniform non-identity two-qubit Pauli
};

/** One compiled op. */
struct FrameOp
{
    FrameOpCode code;
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    /**
     * Noise ops: the replay site, the index in the noise-free replay
     * stream of the first op after this one (the stream's length for
     * trailing noise).  The op's error events are applied just before
     * that op runs.  Other ops never read it.
     */
    std::uint32_t site = 0;
    /** Noise ops: index into FrameProgram::noiseChannels(). */
    std::uint32_t channel = 0;
};

/**
 * Precomputed constants of one distinct noise channel (an error
 * probability p plus, for PAULI1, its component split), shared by
 * every op of the program that applies it.
 */
struct NoiseChannel
{
    /**
     * erring[k] = (1 - (1-p)^k) * 2^64, rounded: a uniform 64-bit draw
     * lies below it with the probability that at least one of k lanes
     * errs.  Non-decreasing, erring[0] = 0; all zero when p <= 0.
     */
    std::array<std::uint64_t, 65> erring{};
    /**
     * Search accelerator for the inverse CDF: runStart[b] is the
     * clean-lane run of the draw b << bucketShift, the lower edge of
     * bucket b; the buckets cover every draw below erring[64].
     */
    std::array<std::uint8_t, 256> runStart{};
    unsigned bucketShift = 0;
    /** p >= 1: every lane errs and no gap is drawn. */
    bool certain = false;
    double pickX = 0.0;  ///< PAULI1: P(X | error)
    double pickXY = 0.0; ///< PAULI1: P(X or Y | error)
};

/**
 * One resolved error: XOR @p mask into word @p row of the frame buffer
 * just before replay op @p site runs.
 */
struct NoiseEvent
{
    std::uint32_t site = 0;
    std::uint32_t row = 0;
    std::uint64_t mask = 0;
};

/**
 * Reusable per-thread state for W-word blocks (W x 64 shots).  All rows
 * are word-blocks: qubit q's X frame occupies frame[q * words ..), its Z
 * frame frame[(numQubits() + q) * words ..), measurement record m
 * occupies meas[(m & measMask) * words ..), and the collapse word of the
 * range's i-th M op occupies collapse[i * words ..).  Word j of every
 * row holds the same 64-shot lane group, so word-major slices of a
 * block are bit-identical to W independent 64-shot batches.
 *
 * Noise lives in events[0, eventCount), ordered by replay site, and
 * grows with the error events a block draws, not with the circuit.
 * Resolution writes all four masks of an erring op before it knows
 * which are non-zero, so it keeps events.size() four entries ahead of
 * the count.
 */
struct FrameBlockScratch
{
    std::size_t words = 0; ///< block width the buffers are sized for
    /** Record-row mask: all ones for the full record, else the ring's. */
    std::size_t measMask = 0;
    std::vector<std::uint64_t> frame;    ///< X rows, then Z rows
    std::vector<std::uint64_t> meas;
    std::vector<std::uint64_t> collapse; ///< M collapse words
    std::vector<NoiseEvent> events;      ///< resolved errors, site order
    std::size_t eventCount = 0;
    std::vector<NoiseEvent> sorted;      ///< counting-sort target
    std::vector<std::uint32_t> siteStart; ///< counting-sort offsets
    std::vector<std::uint64_t> fold; ///< annotation-fold accumulator row
};

/**
 * One compiled slice ("round") of the op stream: the half-open
 * replay-op, RNG-op, tape-slot, collapse-row, measurement-record,
 * detector and per-slice-observable ranges it covers.  Slices partition
 * the stream; boundaries fall where a qubit is measured for the second
 * time since the previous boundary, which for round-structured circuits
 * (every ancilla measured once per round) lands exactly one QEC round
 * per slice.  A slice's noise events have sites in [opBegin, opEnd].
 */
struct FrameSliceInfo
{
    std::uint32_t opBegin = 0;   ///< first noise-free (replay) op
    std::uint32_t opEnd = 0;
    std::uint32_t rngBegin = 0;  ///< first RNG-consuming op of the slice
    std::uint32_t rngEnd = 0;
    std::uint32_t tapeBegin = 0; ///< first noise-tape slot of the slice
    std::uint32_t tapeEnd = 0;
    std::uint32_t collapseBegin = 0; ///< first M op (collapse row)
    std::uint32_t collapseEnd = 0;
    std::uint32_t measBegin = 0; ///< first measurement record
    std::uint32_t measEnd = 0;
    std::uint32_t detBegin = 0;  ///< first detector emitted in the slice
    std::uint32_t detEnd = 0;
    std::uint32_t obsBegin = 0;  ///< per-slice observable entry range
    std::uint32_t obsEnd = 0;
};

/**
 * A circuit lowered for batched frame simulation.  Immutable after
 * compile(); safe to share across threads (DecoderCache stores one per
 * circuit beside the DEM).
 */
class FrameProgram
{
  public:
    /** Lower @p circuit. */
    static std::shared_ptr<const FrameProgram>
    compile(const Circuit& circuit);

    std::size_t numQubits() const { return nQubits; }
    std::size_t numMeasurements() const { return nMeas; }
    std::size_t numDetectors() const { return nDets; }
    std::size_t numObservables() const { return nObs; }

    /**
     * Every compiled op, noise included, in circuit order, rebuilt from
     * the replay and resolution lists (for reference interpreters and
     * tests; the kernels read those lists directly).
     */
    std::vector<FrameOp> ops() const;
    /** Distinct noise channels, indexed by FrameOp::channel. */
    const std::vector<NoiseChannel>& noiseChannels() const
    {
        return channels;
    }

    /** Measurement indices of detector @p d (CSR view). */
    const std::uint32_t* detMeasBegin(std::size_t d) const
    {
        return detMeas.data() + detOffsets[d];
    }
    const std::uint32_t* detMeasEnd(std::size_t d) const
    {
        return detMeas.data() + detOffsets[d + 1];
    }
    /** Measurement indices folded into observable @p k (CSR view). */
    const std::uint32_t* obsMeasBegin(std::size_t k) const
    {
        return obsMeas.data() + obsOffsets[k];
    }
    const std::uint32_t* obsMeasEnd(std::size_t k) const
    {
        return obsMeas.data() + obsOffsets[k + 1];
    }

    /**
     * Noise-tape slots per 64-shot batch: one per M collapse word and
     * one per flip mask a noise op can produce (X_ERROR/Z_ERROR 1,
     * PAULI1/DEPOL1 2, DEPOL2 4).  The dense tape this counts is never
     * stored; only its non-zero masks become events.  It stays the
     * work-size measure behind stab.sampler.noise_words.
     */
    std::size_t tapeWords() const { return nTapeSlots; }

    /** Number of compiled slices (>= 1 for a non-empty program). */
    std::size_t numSlices() const { return slices.size(); }
    /** Ranges of slice @p s. */
    const FrameSliceInfo& sliceInfo(std::size_t s) const
    {
        return slices[s];
    }
    /**
     * Measurement-record lookback: the farthest any slice's detectors
     * or observable entries reach behind that slice's last record.
     * The streaming ring holds this many words regardless of circuit
     * length (bounded-memory guarantee).
     */
    std::size_t measLookback() const { return lookback; }
    /** Power-of-two capacity of the streaming measurement ring. */
    std::size_t measRingCapacity() const { return ringCapacity; }

    // --- execution: resolve -> replay -> fold ---------------------------
    //
    // One kernel set runs every program, over a range of slices at W
    // words (W x 64 shots):
    //
    //   1. resolveSlices draws the range's noise word by word, ops in
    //      stream order, as RNG contract v2 says, keeping each M's
    //      collapse word and one event per non-zero flip mask.  No draw
    //      reads the frame, so the draws of a word are fixed before any
    //      frame update and a whole block resolves ahead of its replay.
    //   2. replaySlices walks the range's noise-free ops once over
    //      W-word rows, applying each event just before its site and
    //      recording measurement rows.  Frame propagation is bitwise per
    //      lane, so each word comes out as a 1-word block would compute
    //      it.
    //   3. foldSlices XOR-folds the range's detectors and observable
    //      includes into packed words.
    //
    // The batch path (FrameSimulator::sampleDetectors) runs the whole
    // program at W <= 8 through resolveNoiseTape, replayBlock and
    // foldAnnotationsBlock.  DetectorStream runs one slice at a time at
    // W = 1 into the bounded measurement ring: at one word, the
    // slice-by-slice draws are exactly the whole program's word-major
    // order, so both paths give the same bits and leave the generator
    // in the same state.  A wider slice range would draw word 1 of a
    // slice before word 0 of the next, which the contract does not
    // allow; resolveSlices rejects it.

    /**
     * Size @p scratch for @p words-word blocks (1..kMaxFrameBlockWords)
     * and zero its frame and record rows.  With @p ring the record is
     * the bounded ring of measRingCapacity() rows, for slice-at-a-time
     * execution that folds each slice before later slices overwrite
     * its lookback; otherwise it holds all numMeasurements() rows.
     */
    void beginBlock(FrameBlockScratch& scratch, std::size_t words,
                    bool ring) const;

    /**
     * Pass 1 over slices [@p first, @p last): resolve the range's noise,
     * drawing word by word in the exact order of RNG contract v2, into
     * the scratch's collapse rows and site-ordered events (the previous
     * range's are replaced).  Returns the applied error-lane popcount
     * over all words, idle lanes included (the frame_flips counter
     * contribution).  A range short of the whole program requires a
     * 1-word scratch.
     */
    std::uint64_t resolveSlices(FrameBlockScratch& scratch,
                                std::size_t first, std::size_t last,
                                Rng& rng) const;

    /**
     * Pass 2 over slices [@p first, @p last) of the resolved range:
     * replay the noise-free ops over the W-word frame rows, applying
     * every event at its site and recording measurement rows.  Slices
     * replay in order.
     */
    void replaySlices(FrameBlockScratch& scratch, std::size_t first,
                      std::size_t last) const;

    /**
     * Pass 3 over slices [@p first, @p last): XOR-fold the replayed
     * record into W packed words per detector and observable.  Detector
     * d of the range lands in
     * @p det_words[(d - sliceInfo(first).detBegin) * det_stride + j];
     * observable k is assigned the range's share of its includes at
     * @p obs_words[k * obs_stride + j], so the shares of a batch's
     * slices XOR to the whole observable.  @p last_word_mask masks word
     * W - 1 of every row (idle lanes of a trailing partial batch);
     * earlier words are always full.
     */
    void foldSlices(FrameBlockScratch& scratch, std::size_t first,
                    std::size_t last, std::uint64_t last_word_mask,
                    std::uint64_t* det_words, std::size_t det_stride,
                    std::uint64_t* obs_words, std::size_t obs_stride) const;

    /**
     * The whole program's pass 1: beginBlock over the full record, then
     * resolveSlices over every slice.
     */
    std::uint64_t resolveNoiseTape(FrameBlockScratch& scratch,
                                   std::size_t words, Rng& rng) const;

    /**
     * The whole program's pass 2.  Requires a scratch prepared by
     * resolveNoiseTape (or, for replay-only benchmarking, one whose
     * resolved events are replayed again).
     */
    void replayBlock(FrameBlockScratch& scratch) const;

    /** The whole program's pass 3; see foldSlices. */
    void foldAnnotationsBlock(FrameBlockScratch& scratch,
                              std::uint64_t last_word_mask,
                              std::uint64_t* det_words,
                              std::size_t det_stride,
                              std::uint64_t* obs_words,
                              std::size_t obs_stride) const;

  private:
    std::size_t nQubits = 0;
    std::size_t nMeas = 0;
    std::size_t nDets = 0;
    std::size_t nObs = 0;
    std::vector<NoiseChannel> channels;
    /** RNG-consuming ops only (noise ops and M), resolution order. */
    std::vector<FrameOp> rngOps;
    /** Noise-free ops only, replay order; noise sites index it. */
    std::vector<FrameOp> replayOps;
    /** Mean error events per word before each slice (size slices + 1). */
    std::vector<double> eventPrefix;
    std::size_t nTapeSlots = 0;
    std::vector<std::uint32_t> detOffsets; ///< size nDets + 1
    std::vector<std::uint32_t> detMeas;
    std::vector<std::uint32_t> obsOffsets; ///< size nObs + 1
    std::vector<std::uint32_t> obsMeas;
    std::vector<FrameSliceInfo> slices;
    /** Per-slice observable entries: (observable id, record index). */
    std::vector<std::uint32_t> sliceObsId;
    std::vector<std::uint32_t> sliceObsMeas;
    std::size_t lookback = 0;
    std::size_t ringCapacity = 1;
};

/** Block width of the batch path: 8 words, 512 shots per block. */
inline constexpr std::size_t kMaxFrameBlockWords = 8;

/**
 * The batch path's block width in 64-bit words, always
 * kMaxFrameBlockWords.  Samples are bit-identical at every width; the
 * tests pin that at {1, 4, 8} through explicit-width block calls.
 */
constexpr std::size_t
frameBlockWords()
{
    return kMaxFrameBlockWords;
}

} // namespace stab
} // namespace hetarch
