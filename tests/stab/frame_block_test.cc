/**
 * @file
 * Pins the word-block executor's contracts:
 *
 *   - samples are bit-identical at every block width (1, 4, 8 words),
 *     including ragged shot counts that end in a partial word and in a
 *     partial block;
 *   - a W-word block consumes the RNG stream exactly like W sequential
 *     1-word blocks (noise words are resolved in the same order), so
 *     generator state after sampling matches too;
 *   - a W-word block reproduces W sequential 1-word blocks word for
 *     word (measurement rows and flip totals);
 *   - every stab.sampler.* counter delta of sampleDetectors equals the
 *     totals the block calls produce at any width.
 *
 * Widths are pinned through explicit-width block calls; the batch path
 * itself always runs frameBlockWords() = 8.  The circuit under test
 * covers every opcode the frame pipeline lowers: all unitaries, M/R/MR,
 * both biased errors, the Pauli-1 channel, and both depolarizing
 * channels (DEPOL2 fills four tape rows per op).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/rng.hh"
#include "obs/obs.hh"
#include "stab/circuit.hh"
#include "stab/frame.hh"
#include "stab/frame_program.hh"
#include "support/packed_samples.hh"

namespace hetarch {
namespace stab {
namespace {

/** A circuit touching every lowered opcode, over two noisy rounds. */
Circuit
opcodeSoup()
{
    Circuit c(4);
    c.h(0);
    c.s(1);
    c.sdg(2);
    c.x(3);
    c.y(0);
    c.z(1);
    c.xError(0, 0.3);
    c.zError(1, 0.2);
    c.pauliChannel1(2, 0.05, 0.1, 0.15);
    c.depolarize1(3, 0.25);
    c.depolarize2(0, 1, 0.2);
    c.cx(0, 1);
    c.cz(1, 2);
    c.swap(2, 3);
    std::vector<std::size_t> r0;
    for (std::uint32_t q = 0; q < 4; ++q)
        r0.push_back(c.measureReset(q));
    c.depolarize2(2, 3, 0.15);
    c.h(0);
    c.reset(1);
    c.xError(2, 0.4);
    std::vector<std::size_t> r1;
    for (std::uint32_t q = 0; q < 4; ++q)
        r1.push_back(c.measure(q));
    for (std::uint32_t q = 0; q < 4; ++q)
        c.detector({r0[q], r1[q]});
    c.observableInclude(0, {r1[0], r1[2]});
    return c;
}

std::uint64_t
counterValue(const obs::Snapshot& snap, const std::string& name)
{
    for (const auto& [n, v] : snap.counters)
        if (n == name)
            return v;
    return 0;
}

TEST(FrameBlock, SamplesAreBitIdenticalAtEveryWidth)
{
    const auto prog = FrameProgram::compile(opcodeSoup());
    const FrameSimulator frame(prog);

    // 300 shots = 4 full words + a 44-lane partial word; with width 4
    // the last block also holds fewer words than the width.
    for (const std::size_t shots : {std::size_t{300}, std::size_t{64},
                                    std::size_t{1}, std::size_t{513}}) {
        Rng rng_ref(777);
        const auto ref = sampleAtWidth(*prog, shots, 1, rng_ref);
        // RNG-consumption parity: every width must leave the generator
        // exactly where the 1-word path left it.
        const std::uint64_t next_draw = rng_ref();

        for (const std::size_t width : {std::size_t{4}, std::size_t{8}}) {
            Rng rng(777);
            const auto got = sampleAtWidth(*prog, shots, width, rng);
            EXPECT_EQ(got.detWords, ref.detWords)
                << "width=" << width << " shots=" << shots;
            EXPECT_EQ(got.obsWords, ref.obsWords)
                << "width=" << width << " shots=" << shots;
            EXPECT_EQ(rng(), next_draw)
                << "width=" << width << " shots=" << shots;
        }

        // The batch path is the same calls at frameBlockWords().
        Rng rng(777);
        const auto batch = frame.sampleDetectors(shots, rng);
        EXPECT_EQ(batch.detWords, ref.detWords) << "shots=" << shots;
        EXPECT_EQ(batch.obsWords, ref.obsWords) << "shots=" << shots;
        EXPECT_EQ(rng(), next_draw) << "shots=" << shots;
    }
}

TEST(FrameBlock, WideBlockReproducesSequentialOneWordBlocks)
{
    const auto prog = FrameProgram::compile(opcodeSoup());
    const std::size_t words = 4;

    Rng rng_seq(9001);
    FrameBlockScratch seq;
    std::vector<std::vector<std::uint64_t>> meas_by_word;
    std::uint64_t flips_seq = 0;
    for (std::size_t j = 0; j < words; ++j) {
        flips_seq += prog->resolveNoiseTape(seq, 1, rng_seq);
        prog->replayBlock(seq);
        meas_by_word.push_back(seq.meas);
    }

    Rng rng_blk(9001);
    FrameBlockScratch blk;
    const std::uint64_t flips_blk =
        prog->resolveNoiseTape(blk, words, rng_blk);
    prog->replayBlock(blk);

    EXPECT_EQ(flips_blk, flips_seq);
    ASSERT_EQ(blk.meas.size(), prog->numMeasurements() * words);
    for (std::size_t m = 0; m < prog->numMeasurements(); ++m)
        for (std::size_t j = 0; j < words; ++j)
            EXPECT_EQ(blk.meas[m * words + j], meas_by_word[j][m])
                << "measurement " << m << " word " << j;
    EXPECT_EQ(rng_blk(), rng_seq());
}

TEST(FrameBlock, CounterDeltasAreWidthInvariant)
{
    const auto prog = FrameProgram::compile(opcodeSoup());
    const FrameSimulator frame(prog);
    const std::size_t shots = 777; // 13 words, the last one partial

    obs::Registry::instance().reset();
    Rng rng(31337);
    const auto unused = frame.sampleDetectors(shots, rng);
    (void)unused;
    const auto snap = obs::Registry::instance().snapshot();
    EXPECT_EQ(counterValue(snap, "stab.sampler.calls"), 1u);
    EXPECT_EQ(counterValue(snap, "stab.sampler.shots"), shots);
    EXPECT_EQ(counterValue(snap, "stab.sampler.batches"), 13u);
    EXPECT_EQ(counterValue(snap, "stab.sampler.noise_words"),
              prog->tapeWords() * 13);
    EXPECT_GT(counterValue(snap, "stab.sampler.rng_draws"), 0u);

    // Flips and draws are the block calls' totals at every width.
    for (const std::size_t width :
         {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
        Rng block_rng(31337);
        std::uint64_t flips = 0;
        (void)sampleAtWidth(*prog, shots, width, block_rng, &flips);
        EXPECT_EQ(counterValue(snap, "stab.sampler.frame_flips"), flips)
            << "width " << width;
        EXPECT_EQ(counterValue(snap, "stab.sampler.rng_draws"),
                  block_rng.draws())
            << "width " << width;
    }
}

} // namespace
} // namespace stab
} // namespace hetarch
