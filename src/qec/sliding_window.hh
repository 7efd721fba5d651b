/**
 * @file
 * Sliding-window streaming decoder: the one decode kernel behind both
 * the batch memory experiment and the streaming engine.
 *
 * The kernel consumes a 64-shot batch as a sequence of per-round
 * SyndromeBlocks (see stab/frame.hh) and decodes it in one of two
 * modes:
 *
 *   - **Whole-buffer** (windowRounds == 0 or >= rounds): blocks are
 *     assembled into the batch's full detector column and decoded at
 *     finishBatch() by the same routine that decodeBuffer() runs over
 *     a packed sample buffer: one detector-major pass collects every
 *     shot's fired detectors, then each non-trivial shot is decoded
 *     once.  Each decode is a pure function of its fired list, so the
 *     batch API is literally "window spans the whole buffer".
 *
 *   - **Sliding-window** (windowRounds < rounds, union-find only): a
 *     window of W rounds is decoded whenever it fills; the first C
 *     rounds of the window are *committed* — correction edges whose
 *     earliest endpoint lies in the commit region XOR their
 *     observable masks into the running per-lane prediction — and
 *     edges crossing the commit boundary flip a carried defect at
 *     their retained endpoint.  Edges entirely beyond the boundary
 *     are discarded and re-decoded in the next window.  Peak syndrome
 *     storage is the defects of W rounds plus the carry, independent
 *     of the total round count.
 *
 * Union-find decodes only the graph that carries the observable
 * (DecoderSetup::zCarriesObservable).  The setup builds the other
 * graph with every observable mask empty, and a union-find prediction
 * is the XOR of its correction edges' masks, so decoding that graph
 * would always predict 0: skipping it loses no prediction and halves
 * the decode work.  The setup still builds both graphs, which tests
 * and the shot benchmark's setup check read.
 *
 * The commit rule is sound because every edge incident to a
 * commit-region node has its earliest endpoint in the commit region:
 * applying exactly the committed edges resolves every commit-region
 * defect, and the carried flips record precisely the parity the
 * committed edges deposited on retained rounds.
 *
 * Telemetry: the kernel accumulates plain (non-atomic) statistics,
 * and each driver hands a finished kernel's Stats to
 * publishDecodeStats(), the one place the qec.decode.* counters
 * (union-find growth work included) and the qec.syndrome_weight
 * histogram are fed; the streaming driver adds qec.stream.*.
 * Per-window decode latency is recorded directly into the advisory
 * qec.stream.window_decode_ns histogram.
 */

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "obs/obs.hh"
#include "qec/decoder_cache.hh"
#include "stab/frame.hh"

namespace hetarch {
namespace qec {

/** Windowing parameters of a SlidingWindowDecoder. */
struct WindowConfig
{
    /**
     * Rounds per decode window; 0 (or anything >= the circuit's round
     * count) selects the whole-buffer mode.
     */
    std::size_t windowRounds = 0;
    /**
     * Rounds committed per window step (1..windowRounds); 0 picks
     * half the window, minimum 1.
     */
    std::size_t commitRounds = 0;
};

/**
 * Streaming decode kernel over one DecoderSetup.  Not thread-safe;
 * create one per worker (construction only binds the shared graph).
 *
 * Usage per 64-shot batch: beginBatch(lanes), pushBlock() for every
 * round in order, then finishBatch() which returns the batch's logical
 * failures.  A pre-sampled packed buffer goes through decodeBuffer()
 * in one call.
 */
class SlidingWindowDecoder
{
  public:
    /** Plain accumulated statistics; read via stats(). */
    struct Stats
    {
        std::uint64_t shots = 0;
        std::uint64_t failures = 0;
        std::uint64_t trivialShots = 0; ///< weight-0 decoder bypasses
        obs::LocalHistogram syndromeWeights; ///< per-shot fired count
        // Streaming extras (windowed mode; blocks count in any mode).
        std::uint64_t blocks = 0;        ///< SyndromeBlocks consumed
        std::uint64_t windows = 0;       ///< window decode points
        std::uint64_t laneDecodes = 0;   ///< non-empty per-lane decodes
        std::uint64_t committedRounds = 0;
        std::uint64_t carryDefects = 0;  ///< defects carried forward
        /** Union-find growth work (UnionFindDecoder::sweeps/edgeVisits). */
        std::uint64_t ufSweeps = 0;
        std::uint64_t ufEdgeVisits = 0;
        std::uint64_t batchShots = 0;  ///< shots through decodeBuffer
        /**
         * Always 0: every shot is decoded from its own fired list, none
         * reuses another's prediction.  Kept for readers of the shot
         * benchmark's qec.dedup_share.
         */
        std::uint64_t dedupHits = 0;
    };

    SlidingWindowDecoder(const DecoderSetup& setup, DecoderKind kind,
                         const WindowConfig& config = {});

    /** Whether the kernel runs in sliding-window mode. */
    bool windowed() const { return isWindowed; }
    /** Rounds (program slices) per shot. */
    std::size_t numRounds() const { return nRounds; }
    /** Effective window size in rounds (numRounds() when batch). */
    std::size_t effectiveWindow() const { return window; }
    /** Effective commit stride (numRounds() when batch). */
    std::size_t effectiveCommit() const { return commit; }
    /**
     * Upper bound on the syndrome rounds this kernel stores at once:
     * the window in windowed mode (independent of the round count),
     * the full buffer otherwise.
     */
    std::size_t peakStoredRounds() const { return window; }

    const Stats& stats() const { return acc; }

    /** Start a batch of @p lanes shots (1..64). */
    void beginBatch(std::size_t lanes);

    /**
     * Consume one round's SyndromeBlock.  Blocks must arrive in slice
     * order; in windowed mode full windows decode immediately, so the
     * block's storage can be recycled as soon as the call returns.
     */
    void pushBlock(const stab::SyndromeBlock& block);

    /**
     * Finish the batch: decode (whole-buffer mode) or reconcile the
     * final window (windowed mode), compare predictions against the
     * recorded observables, and return the batch's failure count.
     */
    std::size_t finishBatch();

    /**
     * Decode every shot of a packed sample buffer of this setup's
     * program and return its logical-failure count.  Runs the same
     * whole-buffer routine as finishBatch(), over all of the buffer's
     * words at once, so failures, trivial-shot counts and
     * syndrome-weight records equal decoding it 64 shots at a time.
     * Whole-buffer mode only.
     */
    std::size_t decodeBuffer(const stab::DetectorSamples& samples);

  private:
    void collectFired(const std::uint64_t* det, std::size_t stride,
                      std::size_t words, std::size_t n_det,
                      std::uint32_t first);
    void decodeShots(const std::uint64_t* det, std::size_t stride,
                     std::size_t shots);
    std::size_t countFailures(const std::uint64_t* obs, std::size_t stride,
                              std::size_t shots);
    void decodeWindow(std::size_t commit_end);
    void decodeWindowLane(std::size_t lane, std::size_t commit_end,
                          bool final_window);
    void syncGrowthWork();

    const DecoderSetup& setup;
    DecoderKind kind;
    bool isWindowed = false;
    std::size_t nRounds = 1;
    std::size_t window = 1;
    std::size_t commit = 1;

    /** The observable-carrying graph and its union-find decoder. */
    const DecodingGraph& graph;
    UnionFindDecoder dec;

    Stats acc;

    // --- per-batch state --------------------------------------------
    std::size_t lanes = 0;
    std::size_t pushedRounds = 0;
    std::size_t windowBase = 0;
    std::vector<std::uint64_t> obsAccum; ///< per-observable lane word
    std::vector<std::uint32_t> predicted; ///< per-shot observable mask
    std::array<std::uint32_t, 64> shotWeight{};

    // Whole-buffer mode: the batch's full detector column.
    std::vector<std::uint64_t> detColumn;

    // Windowed mode: per-lane pending defect node ids (sorted
    // ascending; node order follows round order).  This *is* the
    // bounded syndrome storage.
    std::array<std::vector<std::uint32_t>, 64> pending;
    /** Round of each graph node (windowed mode only). */
    std::vector<std::uint32_t> nodeRound;

    // Reused scratch.  fired[s]: shot s's fired detector ids,
    // ascending (64 entries per packed word; cleared, never shrunk).
    std::vector<std::vector<std::uint32_t>> fired;
    std::vector<std::uint32_t> nodesBuf;
    std::vector<std::uint32_t> edgesBuf;
    std::vector<std::uint32_t> flipsBuf;
    std::vector<std::uint32_t> keepBuf;
    std::vector<std::uint32_t> residual; ///< greedy scratch
    std::vector<std::uint32_t> residualNext;
};

/**
 * Add one finished kernel's statistics to the qec.decode.* counters
 * (shots, logical failures, trivial shots, union-find growth work) and
 * the qec.syndrome_weight histogram.  Every value is a function of the
 * decoded data alone, so publishing per chunk keeps the totals
 * identical at any worker count.
 */
void publishDecodeStats(const SlidingWindowDecoder::Stats& stats);

} // namespace qec
} // namespace hetarch
