#include "qec/stream_experiment.hh"

#include <utility>

#include "core/logging.hh"
#include "exec/block_queue.hh"
#include "exec/shot_scheduler.hh"
#include "exec/thread_pool.hh"
#include "obs/obs.hh"

namespace hetarch {
namespace qec {

namespace {

// Streaming telemetry.  Counters are functions of the sampled data and
// the window configuration alone — bit-identical at any worker count
// (single consumer, FIFO order).  The stall histogram is advisory.
obs::Counter& cStreamShots = obs::counter("qec.stream.shots");
obs::Counter& cStreamBlocks = obs::counter("qec.stream.blocks");
obs::Counter& cStreamWindows = obs::counter("qec.stream.windows");
obs::Counter& cStreamLaneDecodes = obs::counter("qec.stream.lane_decodes");
obs::Counter& cStreamCommittedRounds =
    obs::counter("qec.stream.committed_rounds");
obs::Counter& cStreamCarryDefects =
    obs::counter("qec.stream.carry_defects");
obs::Histogram& hBackpressureWaitNs =
    obs::histogram("qec.stream.backpressure_wait_ns");

// Legacy decode telemetry: the streaming engine feeds the same
// counters the batch path pins, with identical values for identical
// sampled data (interned by name; defined in memory_experiment.cc).
// The union-find growth counters match only in whole-buffer mode,
// since windows re-decode retained rounds.
obs::Counter& cShotsDecoded = obs::counter("qec.decode.shots");
obs::Counter& cLogicalFailures =
    obs::counter("qec.decode.logical_failures");
obs::Counter& cTrivialShots = obs::counter("qec.decode.trivial_shots");
obs::Counter& cUfSweeps = obs::counter("qec.decode.uf_sweeps");
obs::Counter& cUfEdgeVisits = obs::counter("qec.decode.uf_edge_visits");
obs::Counter& cShotsCompleted =
    obs::counter("exec.scheduler.shots_completed");
obs::Histogram& hSyndromeWeight = obs::histogram("qec.syndrome_weight");

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
    SlidingWindowDecoder kernel(*setup, decoder, wc);
    result.windowRounds = kernel.effectiveWindow();
    result.commitRounds = kernel.effectiveCommit();
    result.peakStoredRounds = kernel.peakStoredRounds();

    // One draw fixes the base stream; each chunk derives its own
    // generator, exactly like runMemoryExperiment.
    const std::uint64_t base = rng();
    const exec::ShotScheduler sched(shots, config.chunkShots);

    std::size_t failures = 0;
    const auto consume = [&](stab::SyndromeBlock& block) {
        if (block.slice == 0)
            kernel.beginBatch(block.lanes);
        kernel.pushBlock(block);
        if (block.lastSliceOfBatch)
            failures += kernel.finishBatch();
    };

    // Pair sampler and decoder as concurrent pool tasks only when the
    // pool can actually run both at once; otherwise the producer
    // decodes each block inline — same FIFO order, identical result.
    const bool paired =
        exec::threadCount() >= 2 && !exec::inParallelRegion();
    result.paired = paired;

    // Both execution shapes issue the same parallelInvoke, so the
    // exec.* counters stay thread-count invariant; only where the
    // decode happens differs (queue handoff vs inline in the
    // producer), and the single FIFO decode stream is identical.
    std::uint64_t producer_wait_ns = 0;
    exec::BlockQueue<stab::SyndromeBlock> queue(config.queueBlocks);
    exec::parallelInvoke({
        [&] { // producer: sample blocks chunk by chunk
            stab::SyndromeBlock block;
            for (std::size_t i = 0; i < sched.numChunks(); ++i) {
                const auto chunk = sched.chunk(i);
                Rng chunk_rng =
                    exec::ShotScheduler::chunkRng(base, chunk.index);
                stab::DetectorStream stream(setup->program, chunk.count);
                while (true) {
                    if (paired)
                        queue.takeRecycled(block);
                    if (!stream.next(chunk_rng, block))
                        break;
                    if (paired) {
                        if (!queue.push(std::move(block),
                                        &producer_wait_ns))
                            return; // closed early (consumer died)
                    } else {
                        consume(block); // cooperative: decode inline
                    }
                }
                cShotsCompleted.add(chunk.count);
            }
            queue.close();
        },
        [&] { // consumer: the single decode stream (paired mode only)
            if (!paired)
                return;
            stab::SyndromeBlock block;
            while (queue.pop(block)) {
                consume(block);
                queue.recycle(std::move(block));
            }
        },
    });

    const auto& st = kernel.stats();
    HETARCH_ASSERT(st.shots == shots,
                   "streaming decode consumed a partial batch stream");
    result.memory.failures = failures;
    result.blocks = st.blocks;
    result.windows = st.windows;
    result.laneDecodes = st.laneDecodes;
    result.committedRounds = st.committedRounds;
    result.carryDefects = st.carryDefects;
    result.trivialShots = st.trivialShots;
    result.decodeNs = st.decodeNs;
    result.backpressureWaitNs = producer_wait_ns;

    // Deterministic counters: stream view plus the legacy decode set.
    cStreamShots.add(shots);
    cStreamBlocks.add(st.blocks);
    cStreamWindows.add(st.windows);
    cStreamLaneDecodes.add(st.laneDecodes);
    cStreamCommittedRounds.add(st.committedRounds);
    cStreamCarryDefects.add(st.carryDefects);
    cShotsDecoded.add(shots);
    cLogicalFailures.add(failures);
    cTrivialShots.add(st.trivialShots);
    cUfSweeps.add(st.ufSweeps);
    cUfEdgeVisits.add(st.ufEdgeVisits);
    hSyndromeWeight.merge(st.syndromeWeights);
    if (obs::timingEnabled())
        hBackpressureWaitNs.record(producer_wait_ns);

    return result;
}

} // namespace qec
} // namespace hetarch
