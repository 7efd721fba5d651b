#include "stab/frame.hh"

#include <algorithm>
#include <utility>

#include "core/logging.hh"
#include "obs/obs.hh"

namespace hetarch {
namespace stab {

namespace {

// Telemetry.  Flip counts are per 64-lane word (idle lanes of a final
// partial batch included), so they are bit-identical for any chunking
// of a shot budget and any worker count.  noise_words counts resolved
// noise-tape slots (tapeWords() x 64-shot batches), every mask
// resolution could produce whether or not it is kept as an event — a
// function of the program and the shot budget alone, so it too is
// invariant under worker count AND under the sampler's block width.  rng_draws
// counts the generator words noise resolution consumed; each chunk's
// draws are fixed by its seed and RNG contract v2, whatever the width
// or the worker count.
obs::Counter& cSamplerCalls = obs::counter("stab.sampler.calls");
obs::Counter& cSamplerShots = obs::counter("stab.sampler.shots");
obs::Counter& cSamplerBatches = obs::counter("stab.sampler.batches");
obs::Counter& cFrameFlips = obs::counter("stab.sampler.frame_flips");
obs::Counter& cNoiseWords = obs::counter("stab.sampler.noise_words");
obs::Counter& cRngDraws = obs::counter("stab.sampler.rng_draws");

} // namespace

void
DetectorSamples::resize(std::size_t n_shots, std::size_t n_detectors,
                        std::size_t n_observables)
{
    shots = n_shots;
    numDetectors = n_detectors;
    numObservables = n_observables;
    numWords = (n_shots + 63) / 64;
    detWords.assign(numDetectors * numWords, 0);
    obsWords.assign(numObservables * numWords, 0);
}

void
DetectorSamples::append(const DetectorSamples& other)
{
    HETARCH_ASSERT(numDetectors == other.numDetectors &&
                       numObservables == other.numObservables,
                   "appending incompatible sample buffers");
    HETARCH_ASSERT(shots % 64 == 0,
                   "append requires a 64-aligned shot count so packed "
                   "rows concatenate word-wise");
    const std::size_t words = numWords + other.numWords;
    std::vector<std::uint64_t> dets(numDetectors * words, 0);
    for (std::size_t d = 0; d < numDetectors; ++d) {
        std::copy_n(detWords.begin() +
                        static_cast<std::ptrdiff_t>(d * numWords),
                    numWords,
                    dets.begin() + static_cast<std::ptrdiff_t>(d * words));
        std::copy_n(other.detWords.begin() +
                        static_cast<std::ptrdiff_t>(d * other.numWords),
                    other.numWords,
                    dets.begin() +
                        static_cast<std::ptrdiff_t>(d * words + numWords));
    }
    std::vector<std::uint64_t> obss(numObservables * words, 0);
    for (std::size_t k = 0; k < numObservables; ++k) {
        std::copy_n(obsWords.begin() +
                        static_cast<std::ptrdiff_t>(k * numWords),
                    numWords,
                    obss.begin() + static_cast<std::ptrdiff_t>(k * words));
        std::copy_n(other.obsWords.begin() +
                        static_cast<std::ptrdiff_t>(k * other.numWords),
                    other.numWords,
                    obss.begin() +
                        static_cast<std::ptrdiff_t>(k * words + numWords));
    }
    shots += other.shots;
    numWords = words;
    detWords = std::move(dets);
    obsWords = std::move(obss);
}

DetectorStream::DetectorStream(
    std::shared_ptr<const FrameProgram> program, std::size_t shots)
    : prog(std::move(program)), nShots(shots),
      nBatches((shots + 63) / 64)
{
    HETARCH_ASSERT(prog, "null frame program");
}

bool
DetectorStream::next(Rng& rng, SyndromeBlock& block)
{
    if (curBatch >= nBatches) {
        // Exhausted: flush the same telemetry one sampleDetectors()
        // call over this chunk would have produced, exactly once.
        if (!flushed) {
            flushed = true;
            cSamplerCalls.add();
            cSamplerShots.add(nShots);
            cSamplerBatches.add(nBatches);
            cFrameFlips.add(flips);
            cNoiseWords.add(prog->tapeWords() * nBatches);
            cRngDraws.add(draws);
        }
        return false;
    }

    if (curSlice == 0)
        prog->beginBlock(scratch, 1, /*ring=*/true);

    const auto& info = prog->sliceInfo(curSlice);
    const std::size_t lanes =
        std::min<std::size_t>(64, nShots - curBatch * 64);
    const std::uint64_t draws0 = rng.draws();
    flips += prog->resolveSlices(scratch, curSlice, curSlice + 1, rng);
    draws += rng.draws() - draws0;
    prog->replaySlices(scratch, curSlice, curSlice + 1);

    block.batch = curBatch;
    block.slice = curSlice;
    block.lanes = lanes;
    block.detBegin = info.detBegin;
    block.detWords.resize(info.detEnd - info.detBegin);
    block.obsWords.resize(prog->numObservables());
    const std::uint64_t mask =
        lanes == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << lanes) - 1;
    prog->foldSlices(scratch, curSlice, curSlice + 1, mask,
                     block.detWords.data(), 1, block.obsWords.data(), 1);

    block.lastSliceOfBatch = curSlice + 1 == prog->numSlices();
    if (block.lastSliceOfBatch) {
        curSlice = 0;
        ++curBatch;
    } else {
        ++curSlice;
    }
    return true;
}

FrameSimulator::FrameSimulator(const Circuit& circuit)
    : prog(FrameProgram::compile(circuit))
{
}

FrameSimulator::FrameSimulator(std::shared_ptr<const FrameProgram> program)
    : prog(std::move(program))
{
    HETARCH_ASSERT(prog, "null frame program");
}

DetectorSamples
FrameSimulator::sampleDetectors(std::size_t shots, Rng& rng) const
{
    DetectorSamples out;
    out.resize(shots, prog->numDetectors(), prog->numObservables());

    // Batched locally, flushed as single adds after the loop.
    std::uint64_t batches = 0;
    std::uint64_t flips = 0;
    const std::uint64_t draws0 = rng.draws();

    // Word blocks: up to frameBlockWords() 64-shot batches are
    // propagated per program walk.  Noise is resolved word by word in
    // the order of RNG contract v2 (resolveNoiseTape), so samples are
    // bit-identical at every block width — see DESIGN.md.
    const std::size_t block = frameBlockWords();
    FrameBlockScratch scratch;
    for (std::size_t w0 = 0; w0 < out.numWords; w0 += block) {
        const std::size_t words =
            std::min<std::size_t>(block, out.numWords - w0);
        flips += prog->resolveNoiseTape(scratch, words, rng);
        prog->replayBlock(scratch);
        batches += words;
        const std::size_t last_lanes =
            std::min<std::size_t>(64, shots - (w0 + words - 1) * 64);
        const std::uint64_t mask =
            last_lanes == 64 ? ~std::uint64_t{0}
                             : (std::uint64_t{1} << last_lanes) - 1;
        prog->foldAnnotationsBlock(scratch, mask,
                                   out.detWords.data() + w0, out.numWords,
                                   out.obsWords.data() + w0, out.numWords);
    }
    cSamplerCalls.add();
    cSamplerShots.add(shots);
    cSamplerBatches.add(batches);
    cFrameFlips.add(flips);
    cNoiseWords.add(prog->tapeWords() * batches);
    cRngDraws.add(rng.draws() - draws0);
    return out;
}

} // namespace stab
} // namespace hetarch
