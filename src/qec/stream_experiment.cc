#include "qec/stream_experiment.hh"

#include <vector>

#include "core/logging.hh"
#include "exec/shot_scheduler.hh"
#include "exec/thread_pool.hh"
#include "obs/obs.hh"

namespace hetarch {
namespace qec {

namespace {

// Streaming telemetry.  Counters are functions of the sampled data and
// the window configuration alone, summed over chunks — bit-identical
// at any worker count.  The qec.decode.* set is fed per chunk by
// publishDecodeStats.
obs::Counter& cStreamShots = obs::counter("qec.stream.shots");
obs::Counter& cStreamBlocks = obs::counter("qec.stream.blocks");
obs::Counter& cStreamWindows = obs::counter("qec.stream.windows");
obs::Counter& cStreamLaneDecodes = obs::counter("qec.stream.lane_decodes");
obs::Counter& cStreamCommittedRounds =
    obs::counter("qec.stream.committed_rounds");
obs::Counter& cStreamCarryDefects =
    obs::counter("qec.stream.carry_defects");
obs::Counter& cShotsCompleted =
    obs::counter("exec.scheduler.shots_completed");

} // namespace

StreamingResult
runStreamingMemoryExperiment(const stab::Circuit& circuit,
                             std::size_t shots, std::size_t rounds,
                             DecoderKind decoder, Rng& rng,
                             const StreamConfig& config)
{
    StreamingResult result;
    result.memory.shots = shots;
    result.memory.rounds = rounds;
    if (shots == 0)
        return result;

    const auto setup = DecoderCache::instance().get(circuit, decoder);
    const WindowConfig wc{config.windowRounds, config.commitRounds};

    // One draw fixes the base stream; each chunk derives its own
    // generator, exactly like runMemoryExperiment.
    const std::uint64_t base = rng();
    const exec::ShotScheduler sched(shots, config.chunkShots);
    std::vector<SlidingWindowDecoder::Stats> parts(sched.numChunks());
    exec::parallelFor(sched.numChunks(), [&](std::size_t i) {
        const auto chunk = sched.chunk(i);
        Rng chunk_rng = exec::ShotScheduler::chunkRng(base, chunk.index);
        stab::DetectorStream stream(setup->program, chunk.count);
        SlidingWindowDecoder kernel(*setup, decoder, wc);
        stab::SyndromeBlock block;
        while (stream.next(chunk_rng, block)) {
            if (block.slice == 0)
                kernel.beginBatch(block.lanes);
            kernel.pushBlock(block);
            if (block.lastSliceOfBatch)
                kernel.finishBatch();
        }
        if (i == 0) { // every chunk's kernel resolves the same window
            result.windowRounds = kernel.effectiveWindow();
            result.commitRounds = kernel.effectiveCommit();
            result.peakStoredRounds = kernel.peakStoredRounds();
        }
        publishDecodeStats(kernel.stats());
        cShotsCompleted.add(chunk.count);
        parts[i] = kernel.stats();
    });

    std::size_t decoded = 0;
    for (const auto& st : parts) {
        decoded += st.shots;
        result.memory.failures += st.failures;
        result.blocks += st.blocks;
        result.windows += st.windows;
        result.laneDecodes += st.laneDecodes;
        result.committedRounds += st.committedRounds;
        result.carryDefects += st.carryDefects;
        result.trivialShots += st.trivialShots;
    }
    HETARCH_ASSERT(decoded == shots,
                   "streaming decode consumed a partial batch stream");

    cStreamShots.add(shots);
    cStreamBlocks.add(result.blocks);
    cStreamWindows.add(result.windows);
    cStreamLaneDecodes.add(result.laneDecodes);
    cStreamCommittedRounds.add(result.committedRounds);
    cStreamCarryDefects.add(result.carryDefects);
    return result;
}

} // namespace qec
} // namespace hetarch
