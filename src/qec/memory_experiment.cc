#include "qec/memory_experiment.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "exec/shot_scheduler.hh"
#include "exec/thread_pool.hh"
#include "obs/obs.hh"
#include "qec/sliding_window.hh"
#include "qec/surface_circuit.hh"

namespace hetarch {
namespace qec {

namespace {

// Telemetry.  The shot counter is fixed by the partition, hence
// thread-count invariant; only the chunk-decode timer varies between
// runs.  The qec.decode.* set is fed by publishDecodeStats.
obs::Counter& cShotsCompleted =
    obs::counter("exec.scheduler.shots_completed");
obs::Histogram& hDecodeChunkNs = obs::histogram("qec.decode_chunk_ns");

} // namespace

double
MemoryResult::perRound() const
{
    const double p_shot = perShot();
    if (rounds <= 1)
        return p_shot;
    // Invert P_shot = (1 - (1 - 2 p)^R) / 2; clamp for the noisy-sample
    // case p_shot >= 0.5.
    const double inner = 1.0 - 2.0 * std::min(p_shot, 0.4999);
    return 0.5 * (1.0 - std::pow(inner, 1.0 / static_cast<double>(rounds)));
}

std::size_t
countLogicalFailures(const DecoderSetup& setup, DecoderKind decoder,
                     const stab::DetectorSamples& samples)
{
    obs::ScopedTimer timer(hDecodeChunkNs);

    // The decode kernel is local to the call: construction binds the
    // shared graphs and allocates the union-find decoders' flat
    // per-node and per-edge records (O(graph), microseconds beside a
    // chunk's decode), and all per-decode state stays on this thread.
    SlidingWindowDecoder kernel(setup, decoder);
    const std::size_t failures = kernel.decodeBuffer(samples);
    publishDecodeStats(kernel.stats());
    return failures;
}

MemoryResult
runMemoryExperiment(const stab::Circuit& circuit, std::size_t shots,
                    std::size_t rounds, DecoderKind decoder, Rng& rng)
{
    MemoryResult result;
    result.shots = shots;
    result.rounds = rounds;
    if (shots == 0)
        return result;

    const auto setup = DecoderCache::instance().get(circuit, decoder);

    // One draw fixes the experiment's base stream; every chunk derives
    // its generator from (base, chunkIndex), so the partition — and
    // with it the result — is independent of how chunks are scheduled.
    const std::uint64_t base = rng();
    const exec::ShotScheduler sched(shots);
    std::vector<std::size_t> failures(sched.numChunks(), 0);
    exec::parallelFor(sched.numChunks(), [&](std::size_t i) {
        const auto chunk = sched.chunk(i);
        Rng chunk_rng = exec::ShotScheduler::chunkRng(base, chunk.index);
        // Sample the chunk with the word-block sampler, then decode the
        // whole chunk buffer at once.  The buffer is bounded
        // (<= kDefaultChunkShots shots, a few packed words per
        // detector), and RNG-consumption parity makes the sampled
        // bits — and hence the failures and every data-dependent
        // counter — identical to the streamed round-by-round path at
        // any worker count.
        const stab::FrameSimulator frame(setup->program);
        const auto samples = frame.sampleDetectors(chunk.count, chunk_rng);
        failures[i] = countLogicalFailures(*setup, decoder, samples);
        cShotsCompleted.add(chunk.count);
    });
    for (auto f : failures)
        result.failures += f;
    return result;
}

double
surfaceLogicalErrorPerRound(std::size_t distance, std::size_t rounds,
                            const CircuitNoise& noise, std::size_t shots,
                            std::uint64_t seed)
{
    const auto circuit = surfaceMemoryZ(distance, rounds, noise);
    Rng rng(seed);
    const auto result = runMemoryExperiment(circuit, shots, rounds,
                                            DecoderKind::UnionFind, rng);
    return result.perRound();
}

} // namespace qec
} // namespace hetarch
