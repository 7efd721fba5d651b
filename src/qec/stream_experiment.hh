/**
 * @file
 * Streaming syndrome engine: round-sliced sampling into a
 * sliding-window decoder, chunk-parallel on the exec pool.
 *
 * runStreamingMemoryExperiment() re-expresses the batch memory
 * experiment as a stream.  Like runMemoryExperiment it runs
 * exec::parallelFor over the ShotScheduler chunks; each chunk feeds
 * its own stab::DetectorStream, one packed per-round SyndromeBlock at
 * a time, straight into its own SlidingWindowDecoder.  With the
 * default (whole-buffer) window the result is bit-identical to
 * runMemoryExperiment() for the same rng state and chunk size; with
 * windowRounds < rounds each kernel commits as it goes and its peak
 * syndrome storage drops to the window, independent of the total
 * round count.  At most one kernel is live per worker.
 *
 * Determinism contract: one base stream draw, the ShotScheduler
 * partition, and per-chunk derived generators fix the sampled bits;
 * every result field and every qec.* counter is a sum of per-chunk
 * contributions, so all of them are bit-identical at any worker
 * count.
 */

#pragma once

#include <cstdint>

#include "core/rng.hh"
#include "qec/memory_experiment.hh"
#include "qec/sliding_window.hh"

namespace hetarch {
namespace qec {

/** Configuration of the streaming engine. */
struct StreamConfig
{
    /**
     * Decode window in rounds; 0 (or >= the circuit's rounds) selects
     * whole-buffer decoding, bit-identical to runMemoryExperiment.
     */
    std::size_t windowRounds = 0;
    /** Rounds committed per window step; 0 picks windowRounds/2. */
    std::size_t commitRounds = 0;
    /** Shots per scheduler chunk (0 = ShotScheduler default). */
    std::size_t chunkShots = 0;
};

/** Result of a streaming memory experiment. */
struct StreamingResult
{
    MemoryResult memory;

    /** Effective window/commit after mode resolution. */
    std::size_t windowRounds = 0;
    std::size_t commitRounds = 0;
    /**
     * Peak simultaneously stored syndrome rounds of one chunk's
     * kernel (the memory bound per kernel, not summed over workers).
     */
    std::size_t peakStoredRounds = 0;

    // Decode statistics summed over chunks (see
    // SlidingWindowDecoder::Stats).
    std::uint64_t blocks = 0;
    std::uint64_t windows = 0;
    std::uint64_t laneDecodes = 0;
    std::uint64_t committedRounds = 0;
    std::uint64_t carryDefects = 0;
    std::uint64_t trivialShots = 0;

    /** Exact comparison: every field is deterministic. */
    bool operator==(const StreamingResult&) const = default;
};

/**
 * Stream @p shots shots of @p circuit through the sliding-window
 * decoder.  Draws exactly one word from @p rng, like
 * runMemoryExperiment — with a whole-buffer window and equal chunk
 * size the two are bit-identical.  Windowed mode requires
 * DecoderKind::UnionFind.
 */
StreamingResult
runStreamingMemoryExperiment(const stab::Circuit& circuit,
                             std::size_t shots, std::size_t rounds,
                             DecoderKind decoder, Rng& rng,
                             const StreamConfig& config = {});

} // namespace qec
} // namespace hetarch
