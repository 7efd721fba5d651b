/**
 * @file
 * Pins the streaming sampler contract (frame_program.hh slices +
 * DetectorStream): slice-at-a-time execution at one word must consume
 * the RNG stream identically to the whole-program batch path, reassemble
 * to bit-identical packed samples and flush the same sampler counters,
 * while the per-stream measurement storage stays bounded by the
 * program's lookback, independent of the round count.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/rng.hh"
#include "obs/obs.hh"
#include "qec/noise_model.hh"
#include "qec/surface_circuit.hh"
#include "stab/frame.hh"
#include "stab/frame_program.hh"
#include "support/packed_samples.hh"

namespace hetarch {
namespace stab {
namespace {

qec::CircuitNoise
testNoise()
{
    qec::CircuitNoise noise;
    noise.p2 = 1e-2;
    noise.p1 = 1e-3;
    return noise;
}

TEST(FrameProgramSlices, SurfaceCircuitSlicesOncePerRound)
{
    for (std::size_t rounds : {2u, 5u}) {
        const auto circ = qec::surfaceMemoryZ(3, rounds, testNoise());
        const auto prog = FrameProgram::compile(circ);
        // The slice boundary rule (close before a qubit's second
        // measurement since the last boundary) lands exactly one QEC
        // round per slice; the final data readout joins the last round.
        EXPECT_EQ(prog->numSlices(), rounds) << "rounds " << rounds;

        // Slices tile the detector/measurement/op ranges contiguously.
        std::size_t det_cursor = 0;
        for (std::size_t s = 0; s < prog->numSlices(); ++s) {
            const auto& info = prog->sliceInfo(s);
            EXPECT_EQ(info.detBegin, det_cursor);
            EXPECT_GE(info.detEnd, info.detBegin);
            det_cursor = info.detEnd;
        }
        EXPECT_EQ(det_cursor, prog->numDetectors());
    }
}

TEST(FrameProgramSlices, MeasurementRingIsBoundedByLookbackNotRounds)
{
    const auto short_prog =
        FrameProgram::compile(qec::surfaceMemoryZ(3, 4, testNoise()));
    const auto long_prog =
        FrameProgram::compile(qec::surfaceMemoryZ(3, 32, testNoise()));

    // Detectors compare at most adjacent rounds, so the lookback — and
    // with it the ring — must not grow with the round count.
    EXPECT_EQ(long_prog->measRingCapacity(),
              short_prog->measRingCapacity());
    EXPECT_LT(long_prog->measRingCapacity(), long_prog->numMeasurements());
    EXPECT_GE(long_prog->measRingCapacity(), long_prog->measLookback());
}

TEST(DetectorStream, ReassemblesToBatchSamplerBitsExactly)
{
    const auto circ = qec::surfaceMemoryZ(5, 6, testNoise());
    const auto prog = FrameProgram::compile(circ);
    const FrameSimulator sim(prog);

    // 100 shots: one full 64-lane batch plus a 36-lane partial batch.
    const std::size_t shots = 100;
    Rng batch_rng(424242);
    const auto samples = sim.sampleDetectors(shots, batch_rng);

    Rng stream_rng(424242);
    DetectorStream stream(prog, shots);
    EXPECT_EQ(stream.numBatches(), samples.numWords);

    DetectorSamples rebuilt;
    rebuilt.resize(shots, prog->numDetectors(), prog->numObservables());
    std::size_t blocks = 0;
    SyndromeBlock block;
    while (stream.next(stream_rng, block)) {
        ++blocks;
        ASSERT_LT(block.batch, rebuilt.numWords);
        const auto& info = prog->sliceInfo(block.slice);
        ASSERT_EQ(block.detBegin, info.detBegin);
        ASSERT_EQ(block.detWords.size(), info.detEnd - info.detBegin);
        for (std::size_t i = 0; i < block.detWords.size(); ++i)
            rebuilt.detWords[(block.detBegin + i) * rebuilt.numWords +
                             block.batch] = block.detWords[i];
        // Observable words accumulate across a batch's blocks.
        for (std::size_t k = 0; k < block.obsWords.size(); ++k)
            rebuilt.obsWords[k * rebuilt.numWords + block.batch] ^=
                block.obsWords[k];
        EXPECT_EQ(block.lastSliceOfBatch,
                  block.slice + 1 == prog->numSlices());
    }
    EXPECT_EQ(blocks, stream.numBatches() * prog->numSlices());

    EXPECT_EQ(rebuilt.detWords, samples.detWords);
    EXPECT_EQ(rebuilt.obsWords, samples.obsWords);

    // RNG-consumption parity: both generators must sit at the same
    // stream position after sampling the same shots.
    EXPECT_EQ(batch_rng(), stream_rng());
}

TEST(DetectorStream, SliceSequenceConsumesRngLikeOneWordBlock)
{
    const auto circ = qec::surfaceMemoryZ(3, 3, testNoise());
    const auto prog = FrameProgram::compile(circ);

    FrameBlockScratch whole;
    Rng whole_rng(77);
    const std::uint64_t whole_flips =
        prog->resolveNoiseTape(whole, 1, whole_rng);

    FrameBlockScratch ring;
    Rng slice_rng(77);
    prog->beginBlock(ring, 1, /*ring=*/true);
    std::uint64_t slice_flips = 0;
    for (std::size_t s = 0; s < prog->numSlices(); ++s) {
        slice_flips += prog->resolveSlices(ring, s, s + 1, slice_rng);
        prog->replaySlices(ring, s, s + 1);
    }

    EXPECT_EQ(slice_flips, whole_flips);
    EXPECT_EQ(whole_rng(), slice_rng());
}

std::uint64_t
counterValue(const obs::Snapshot& snap, const std::string& name)
{
    for (const auto& [n, v] : snap.counters)
        if (n == name)
            return v;
    return 0;
}

TEST(DetectorStream, FlushedSamplerCountersMatchSampleDetectors)
{
    const auto prog =
        FrameProgram::compile(qec::surfaceMemoryZ(3, 4, testNoise()));
    const std::size_t shots = 300; // 4 full batches + a partial one
    const char* names[] = {
        "stab.sampler.calls",       "stab.sampler.shots",
        "stab.sampler.batches",     "stab.sampler.frame_flips",
        "stab.sampler.noise_words", "stab.sampler.rng_draws"};

    obs::Registry::instance().reset();
    Rng batch_rng(2024);
    (void)FrameSimulator(prog).sampleDetectors(shots, batch_rng);
    const auto batch = obs::Registry::instance().snapshot();

    obs::Registry::instance().reset();
    Rng stream_rng(2024);
    (void)sampleByStream(prog, shots, stream_rng);
    const auto stream = obs::Registry::instance().snapshot();

    for (const char* name : names) {
        EXPECT_GT(counterValue(batch, name), 0u) << name;
        EXPECT_EQ(counterValue(stream, name), counterValue(batch, name))
            << name;
    }
}

TEST(DetectorStream, MatchesBatchOnCircuitWithNoiselessSlice)
{
    // Slice 1 (the second readout round, its detectors and a CX) has
    // no noise op and no M collapse word (MR draws nothing), so it owns
    // no tape slot; the noise between the first two readouts is the
    // tail of slice 0.
    Circuit c(3);
    std::vector<std::size_t> r0, r1, r2;
    c.xError(0, 0.3);
    for (std::uint32_t q = 0; q < 3; ++q)
        r0.push_back(c.measureReset(q));
    c.xError(1, 0.25);
    c.depolarize2(0, 2, 0.2);
    for (std::uint32_t q = 0; q < 3; ++q)
        r1.push_back(c.measureReset(q));
    for (std::uint32_t q = 0; q < 3; ++q)
        c.detector({r0[q], r1[q]});
    c.cx(0, 1);
    for (std::uint32_t q = 0; q < 3; ++q)
        r2.push_back(c.measure(q));
    for (std::uint32_t q = 0; q < 3; ++q)
        c.detector({r1[q], r2[q]});
    c.observableInclude(0, {r1[0], r2[1]});
    const auto prog = FrameProgram::compile(c);
    ASSERT_EQ(prog->numSlices(), 3u);
    ASSERT_EQ(prog->sliceInfo(1).tapeBegin, prog->sliceInfo(1).tapeEnd);
    ASSERT_LT(prog->sliceInfo(1).detBegin, prog->sliceInfo(1).detEnd);
    ASSERT_LT(prog->sliceInfo(2).tapeBegin, prog->sliceInfo(2).tapeEnd);

    for (const std::size_t shots : {std::size_t{64}, std::size_t{200}}) {
        Rng batch_rng(55);
        const auto batch = FrameSimulator(prog).sampleDetectors(shots,
                                                               batch_rng);
        Rng stream_rng(55);
        const auto streamed = sampleByStream(prog, shots, stream_rng);
        EXPECT_EQ(streamed.detWords, batch.detWords) << shots;
        EXPECT_EQ(streamed.obsWords, batch.obsWords) << shots;
        EXPECT_EQ(stream_rng(), batch_rng()) << shots;
    }
}

} // namespace
} // namespace stab
} // namespace hetarch
