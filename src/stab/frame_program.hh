/**
 * @file
 * Compiled frame programs: a Circuit lowered once into a flat op
 * stream plus sparse detector/observable XOR masks.
 *
 * The Pauli-frame sampler used to re-interpret the full op list per
 * 64-shot batch — including the annotation ops it skips — and then
 * re-scan it a second time to fold measurement flips into detectors.
 * A FrameProgram hoists all of that out of the hot loop:
 *
 *   - unitary/noise/measure ops become a dense array of compact
 *     FrameOps, and ops that neither touch the frame nor consume
 *     randomness (bare Paulis, annotations, zero-probability PAULI1)
 *     are dropped entirely;
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
 * whole tape first and replay it afterwards, and what makes samples
 * bit-identical across block widths, worker counts and the streaming
 * path.
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
     * First noise-tape slot of this op (block execution): the RNG
     * resolution pass writes the op's drawn masks into tape rows
     * [tape, tape + slots), and the vectorized replay pass XORs them
     * into the frame.  Zero-slot ops (pure Cliffords, R) never read it.
     */
    std::uint32_t tape = 0;
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

/** Reusable per-thread frame state for 64-shot batches. */
struct FrameScratch
{
    std::vector<std::uint64_t> x;    ///< X-flip per qubit (bit = shot)
    std::vector<std::uint64_t> z;    ///< Z-flip per qubit
    std::vector<std::uint64_t> meas; ///< measurement flips, record order
};

/**
 * Reusable per-thread frame state for W-word block batches (W x 64
 * shots).  All rows are word-blocks: qubit q's X frame occupies
 * x[q * words .. q * words + words), measurement record m occupies
 * meas[m * words ..), and noise-tape slot t occupies tape[t * words ..).
 * Word j of every row holds the same 64-shot lane group, so word-major
 * slices of a block are bit-identical to W independent 64-shot batches.
 */
struct FrameBlockScratch
{
    std::size_t words = 0; ///< block width the buffers are sized for
    std::vector<std::uint64_t> x;
    std::vector<std::uint64_t> z;
    std::vector<std::uint64_t> meas;
    std::vector<std::uint64_t> tape; ///< resolved noise masks, slot-major
    std::vector<std::uint64_t> fold; ///< annotation-fold accumulator row
};

/**
 * One compiled slice ("round") of the op stream: the half-open op,
 * measurement-record, detector and per-slice-observable ranges it
 * covers.  Slices partition the stream; boundaries fall where a qubit
 * is measured for the second time since the previous boundary, which
 * for round-structured circuits (every ancilla measured once per
 * round) lands exactly one QEC round per slice.
 */
struct FrameSliceInfo
{
    std::uint32_t opBegin = 0;   ///< first compiled op of the slice
    std::uint32_t opEnd = 0;
    std::uint32_t measBegin = 0; ///< first measurement record
    std::uint32_t measEnd = 0;
    std::uint32_t detBegin = 0;  ///< first detector emitted in the slice
    std::uint32_t detEnd = 0;
    std::uint32_t obsBegin = 0;  ///< per-slice observable entry range
    std::uint32_t obsEnd = 0;
};

/**
 * Per-thread frame state for streaming slice execution.  Instead of
 * the full measurement record, measurement flips land in a bounded
 * power-of-two ring sized by the program's measurement lookback (how
 * far back any detector reaches, ~2 rounds for memory circuits), so
 * peak storage is independent of the round count.
 */
struct FrameStreamScratch
{
    std::vector<std::uint64_t> x;
    std::vector<std::uint64_t> z;
    std::vector<std::uint64_t> measRing; ///< pow2-sized record ring
    std::size_t measCursor = 0; ///< absolute index of the next record
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

    const std::vector<FrameOp>& ops() const { return stream; }
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
     * Run one 64-shot batch into @p scratch (resized/cleared here, so
     * callers just reuse one FrameScratch across batches).  Returns the
     * number of applied noise-op error lanes (the frame_flips counter
     * contribution), popcounted over all 64 lanes including idle lanes
     * of a final partial batch — exactly the legacy accounting.
     */
    std::uint64_t runBatch(FrameScratch& scratch, Rng& rng) const;

    /**
     * XOR-fold the batch's measurement words into one packed word per
     * detector/observable: detector d's word lands in @p det_words[d],
     * observable k's in @p obs_words[k] (both masked by @p lane_mask so
     * idle lanes of a partial batch stay zero).  The strides let
     * callers write straight into detector-major packed sample
     * buffers.
     */
    void foldAnnotations(const FrameScratch& scratch,
                         std::uint64_t lane_mask, std::uint64_t* det_words,
                         std::size_t det_stride, std::uint64_t* obs_words,
                         std::size_t obs_stride) const;

    // --- word-block (SIMD) execution --------------------------------
    //
    // runBatchBlock() executes W consecutive 64-shot batches at once
    // and is bit-identical to W sequential runBatch() calls on the
    // same generator, including the generator's post-state.  The
    // equivalence rests on two facts:
    //
    //   1. RNG consumption is *frame-independent*: every draw of
    //      contract v2 (gap, Pauli pick, collapse word) depends only on
    //      earlier draws, never on x/z.  So the resolution pass can
    //      draw word w's entire noise tape before word w+1's (the exact
    //      sequential order runBatch uses) while deferring all frame
    //      updates.  Both passes call the same per-op resolver.
    //   2. Frame propagation is bitwise per lane: with the draws fixed
    //      on the tape, replaying the op stream over W-word rows
    //      computes each word exactly as the 1-word interpreter would.
    //
    // The two passes are exposed separately so benches can time the
    // vectorized replay (frame propagation) apart from the RNG work,
    // and tests can pin the tape/replay split directly.

    /** Noise-tape slots per 64-shot batch (rows of the tape buffer). */
    std::size_t tapeWords() const { return nTapeSlots; }

    /**
     * Pass 1: size @p scratch for a @p words-word block and resolve
     * the whole block's noise tape, drawing word-by-word in the exact
     * sequential runBatch order.  Frame and measurement rows are
     * zeroed, the tape is zeroed and then written only where a lane
     * errs (plus every collapse word), straight into its slot-major
     * rows.  Returns the applied error-lane popcount over all words
     * (the frame_flips contribution, identical to the sum of W
     * runBatch returns).
     */
    std::uint64_t resolveNoiseTape(FrameBlockScratch& scratch,
                                   std::size_t words, Rng& rng) const;

    /**
     * Pass 2: replay the op stream over the W-word frame rows, XORing
     * the resolved tape at every noise site and recording measurement
     * rows.  Requires a scratch prepared by resolveNoiseTape (or, for
     * replay-only benchmarking, a re-zeroed frame with the tape kept).
     */
    void replayBlock(FrameBlockScratch& scratch) const;

    /** resolveNoiseTape + replayBlock; returns the flip popcount. */
    std::uint64_t runBatchBlock(FrameBlockScratch& scratch,
                                std::size_t words, Rng& rng) const;

    /**
     * XOR-fold a block's measurement rows into W packed words per
     * detector/observable: detector d's word j lands in
     * @p det_words[d * det_stride + j], observable k's in
     * @p obs_words[k * obs_stride + j].  @p last_word_mask masks the
     * block's final word (idle lanes of a trailing partial batch);
     * earlier words are always full.
     */
    void foldAnnotationsBlock(FrameBlockScratch& scratch,
                              std::uint64_t last_word_mask,
                              std::uint64_t* det_words,
                              std::size_t det_stride,
                              std::uint64_t* obs_words,
                              std::size_t obs_stride) const;

    // --- streaming (sliced) execution -------------------------------
    //
    // Running beginStream() then runSlice(0..numSlices()-1) consumes
    // the RNG stream *identically* to one runBatch() call: the slices
    // partition the same op array and the interpreter is shared, so
    // every draw happens in the same order with the same parameters.
    // foldSlice() over all slices reproduces foldAnnotations() exactly
    // (detectors are partitioned by slice; observable words accumulate
    // per-slice XOR contributions and must start zeroed).

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

    /** Reset @p scratch for a fresh 64-shot streaming batch. */
    void beginStream(FrameStreamScratch& scratch) const;

    /**
     * Run slice @p s of the current batch (slices must run in order
     * from 0).  Returns the applied error-lane popcount, the same
     * accounting as runBatch — summed over all slices it equals the
     * runBatch return value for the identical RNG stream.
     */
    std::uint64_t runSlice(std::size_t s, FrameStreamScratch& scratch,
                           Rng& rng) const;

    /**
     * Fold slice @p s's annotations from the measurement ring.
     * Detector d in [detBegin, detEnd) is *assigned* to
     * @p det_words[(d - detBegin) * det_stride]; the slice's share of
     * observable k is *XORed* into @p obs_words[k * obs_stride].  Call
     * after runSlice(s) and before runSlice of a slice that overwrites
     * the lookback window.
     */
    void foldSlice(std::size_t s, const FrameStreamScratch& scratch,
                   std::uint64_t lane_mask, std::uint64_t* det_words,
                   std::size_t det_stride, std::uint64_t* obs_words,
                   std::size_t obs_stride) const;

  private:
    std::size_t nQubits = 0;
    std::size_t nMeas = 0;
    std::size_t nDets = 0;
    std::size_t nObs = 0;
    std::vector<FrameOp> stream;
    std::vector<NoiseChannel> channels;
    /** RNG-consuming ops only (tape slots assigned), resolution order. */
    std::vector<FrameOp> rngOps;
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

/** Hard cap on the sampler's block width (512 shots per block). */
inline constexpr std::size_t kMaxFrameBlockWords = 8;

/**
 * Process-wide sampler block width in 64-bit words (1..8; default 8 =
 * 512 shots per block, overridable via the HETARCH_SIMD_WIDTH
 * environment variable).  Results are bit-identical at every width —
 * the width only trades dispatch amortization against scratch size —
 * which the lane/word-permutation tests pin at {1, 4, 8}.
 */
std::size_t frameBlockWords();

/** Override the block width (clamped to [1, kMaxFrameBlockWords]). */
void setFrameBlockWords(std::size_t words);

} // namespace stab
} // namespace hetarch
