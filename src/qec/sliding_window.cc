#include "qec/sliding_window.hh"

#include <algorithm>
#include <bit>

#include "core/logging.hh"

namespace hetarch {
namespace qec {

namespace {

// Decode telemetry.  Counters and the syndrome-weight histogram are
// functions of the decoded data alone, hence thread-count invariant.
obs::Counter& cShotsDecoded = obs::counter("qec.decode.shots");
obs::Counter& cLogicalFailures = obs::counter("qec.decode.logical_failures");
obs::Counter& cTrivialShots = obs::counter("qec.decode.trivial_shots");
obs::Counter& cUfSweeps = obs::counter("qec.decode.uf_sweeps");
obs::Counter& cUfEdgeVisits = obs::counter("qec.decode.uf_edge_visits");
obs::Histogram& hSyndromeWeight = obs::histogram("qec.syndrome_weight");

// Advisory decode-latency distribution, one record per window decode
// point (timing-gated like every duration histogram).
obs::Histogram& hWindowDecodeNs =
    obs::histogram("qec.stream.window_decode_ns");

} // namespace

void
publishDecodeStats(const SlidingWindowDecoder::Stats& stats)
{
    cShotsDecoded.add(stats.shots);
    cLogicalFailures.add(stats.failures);
    cTrivialShots.add(stats.trivialShots);
    cUfSweeps.add(stats.ufSweeps);
    cUfEdgeVisits.add(stats.ufEdgeVisits);
    hSyndromeWeight.merge(stats.syndromeWeights);
}

SlidingWindowDecoder::SlidingWindowDecoder(const DecoderSetup& setup,
                                           DecoderKind kind,
                                           const WindowConfig& config)
    : setup(setup), kind(kind),
      graph(setup.zCarriesObservable ? setup.graphZ : setup.graphX),
      dec(graph)
{
    const auto& prog = *setup.program;
    nRounds = std::max<std::size_t>(prog.numSlices(), 1);
    isWindowed =
        config.windowRounds > 0 && config.windowRounds < nRounds;
    if (!isWindowed) {
        window = commit = nRounds;
        detColumn.assign(prog.numDetectors(), 0);
        obsAccum.assign(prog.numObservables(), 0);
        return;
    }
    HETARCH_ASSERT(kind == DecoderKind::UnionFind,
                   "sliding-window decoding needs correction-edge "
                   "output, which only the union-find decoder provides");
    window = config.windowRounds;
    commit = config.commitRounds
                 ? std::min(config.commitRounds, window)
                 : std::max<std::size_t>(window / 2, 1);
    obsAccum.assign(prog.numObservables(), 0);

    // Node -> round map, from the program's slice detector ranges.
    nodeRound.assign(graph.numNodes(), 0);
    for (std::size_t s = 0; s < prog.numSlices(); ++s) {
        const auto& info = prog.sliceInfo(s);
        for (std::size_t d = info.detBegin; d < info.detEnd; ++d) {
            const auto n = graph.detectorToNode()[d];
            if (n >= 0)
                nodeRound[static_cast<std::size_t>(n)] =
                    static_cast<std::uint32_t>(s);
        }
    }
}

void
SlidingWindowDecoder::beginBatch(std::size_t n_lanes)
{
    HETARCH_ASSERT(n_lanes >= 1 && n_lanes <= 64,
                   "batch lanes out of range");
    lanes = n_lanes;
    pushedRounds = 0;
    windowBase = 0;
    predicted.assign(n_lanes, 0);
    shotWeight.fill(0);
    std::fill(obsAccum.begin(), obsAccum.end(), 0);
    if (!isWindowed) {
        std::fill(detColumn.begin(), detColumn.end(), 0);
    } else {
        for (auto& pend : pending)
            pend.clear();
    }
}

void
SlidingWindowDecoder::pushBlock(const stab::SyndromeBlock& block)
{
    HETARCH_ASSERT(block.slice == pushedRounds,
                   "blocks must arrive in round order");
    ++acc.blocks;
    for (std::size_t k = 0; k < obsAccum.size(); ++k)
        obsAccum[k] ^= block.obsWords[k];
    pushedRounds = block.slice + 1;

    if (!isWindowed) {
        std::copy(block.detWords.begin(), block.detWords.end(),
                  detColumn.begin() + block.detBegin);
        return;
    }

    // Extract the round's fired detectors per lane and project them
    // onto the carrying graph; the pending lists are the only syndrome
    // storage, so a consumed block can be recycled immediately.
    collectFired(block.detWords.data(), 1, 1, block.detWords.size(),
                 block.detBegin);
    for (std::size_t l = 0; l < lanes; ++l) {
        if (fired[l].empty())
            continue;
        shotWeight[l] += static_cast<std::uint32_t>(fired[l].size());
        graph.projectSparse(fired[l], pending[l]);
    }

    if (pushedRounds == nRounds) {
        decodeWindow(nRounds); // final window commits all
    } else if (pushedRounds - windowBase == window) {
        decodeWindow(windowBase + commit);
        windowBase += commit;
    }
}

void
SlidingWindowDecoder::collectFired(const std::uint64_t* det,
                                   std::size_t stride, std::size_t words,
                                   std::size_t n_det, std::uint32_t first)
{
    // The scan may write any lane of a word, so every lane of every
    // word is cleared, including lanes past the last shot.
    if (fired.size() < words * 64)
        fired.resize(words * 64);
    for (std::size_t s = 0; s < words * 64; ++s)
        fired[s].clear();
    for (std::size_t d = 0; d < n_det; ++d) {
        for (std::size_t w = 0; w < words; ++w) {
            std::uint64_t word = det[d * stride + w];
            while (word) {
                const auto l =
                    static_cast<std::size_t>(std::countr_zero(word));
                word &= word - 1;
                fired[w * 64 + l].push_back(first +
                                            static_cast<std::uint32_t>(d));
            }
        }
    }
}

void
SlidingWindowDecoder::decodeShots(const std::uint64_t* det,
                                  std::size_t stride, std::size_t shots)
{
    collectFired(det, stride, (shots + 63) / 64, detColumn.size(), 0);
    predicted.assign(shots, 0);
    for (std::size_t s = 0; s < shots; ++s) {
        acc.syndromeWeights.record(fired[s].size());
        // Weight-0 fast path: both decoders map the empty syndrome to
        // the zero correction.
        if (fired[s].empty())
            ++acc.trivialShots;
    }

    if (kind == DecoderKind::GreedyDem) {
        for (std::size_t s = 0; s < shots; ++s)
            if (!fired[s].empty())
                predicted[s] = setup.greedy->decodeSparse(fired[s], residual,
                                                          residualNext);
        return;
    }
    // Shot order over the whole buffer, on the carrying graph only.
    // No sort and no dedup: reusing repeated syndromes never paid for
    // its sort, and per-word loops measured slower than this order.
    for (std::size_t s = 0; s < shots; ++s) {
        if (fired[s].empty())
            continue;
        nodesBuf.clear();
        graph.projectSparse(fired[s], nodesBuf);
        predicted[s] = dec.decodeSparse(nodesBuf);
    }
    syncGrowthWork();
}

void
SlidingWindowDecoder::syncGrowthWork()
{
    acc.ufSweeps = dec.sweeps();
    acc.ufEdgeVisits = dec.edgeVisits();
}

std::size_t
SlidingWindowDecoder::countFailures(const std::uint64_t* obs,
                                    std::size_t stride, std::size_t shots)
{
    const std::size_t n_obs = obsAccum.size();
    const std::uint32_t obs_mask =
        n_obs >= 32 ? 0xffffffffu
                    : (1u << static_cast<std::uint32_t>(n_obs)) - 1u;
    std::size_t failures = 0;
    for (std::size_t s = 0; s < shots; ++s) {
        std::uint32_t actual = 0;
        for (std::size_t k = 0; k < n_obs && k < 32; ++k)
            actual |= static_cast<std::uint32_t>(
                          (obs[k * stride + s / 64] >> (s % 64)) & 1)
                      << k;
        if ((predicted[s] & obs_mask) != actual)
            ++failures;
    }
    acc.failures += failures;
    acc.shots += shots;
    return failures;
}

void
SlidingWindowDecoder::decodeWindowLane(std::size_t lane,
                                       std::size_t commit_end,
                                       bool final_window)
{
    auto& pend = pending[lane];
    if (pend.empty())
        return;
    ++acc.laneDecodes;

    if (final_window) {
        // Everything commits: apply the full correction mask, no edge
        // recording needed.
        predicted[lane] ^= dec.decodeSparse(pend);
        pend.clear();
        return;
    }

    edgesBuf.clear();
    (void)dec.decodeSparse(pend, &edgesBuf);

    const auto& edges = graph.edges();
    flipsBuf.clear();
    for (const auto eid : edgesBuf) {
        const auto& e = edges[eid];
        const std::uint32_t ru = nodeRound[static_cast<std::size_t>(e.u)];
        const std::uint32_t rv =
            e.v < 0 ? ru : nodeRound[static_cast<std::size_t>(e.v)];
        if (std::min(ru, rv) >= commit_end)
            continue; // entirely retained: re-decoded next window
        predicted[lane] ^= e.observables;
        if (std::max(ru, rv) >= commit_end)
            // Crossing edge: its committed half deposited parity on
            // the retained endpoint.
            flipsBuf.push_back(static_cast<std::uint32_t>(
                ru >= commit_end ? e.u : e.v));
    }

    // Carry = retained pending defects XOR the crossing-edge flips
    // (parity-reduced: two flips on one node cancel).
    std::sort(flipsBuf.begin(), flipsBuf.end());
    nodesBuf.clear();
    for (std::size_t i = 0; i < flipsBuf.size();) {
        std::size_t j = i;
        while (j < flipsBuf.size() && flipsBuf[j] == flipsBuf[i])
            ++j;
        if ((j - i) % 2)
            nodesBuf.push_back(flipsBuf[i]);
        i = j;
    }
    keepBuf.clear();
    for (const auto v : pend)
        if (nodeRound[v] >= commit_end)
            keepBuf.push_back(v);
    pend.clear();
    std::set_symmetric_difference(keepBuf.begin(), keepBuf.end(),
                                  nodesBuf.begin(), nodesBuf.end(),
                                  std::back_inserter(pend));
    acc.carryDefects += pend.size();
}

void
SlidingWindowDecoder::decodeWindow(std::size_t commit_end)
{
    obs::ScopedTimer timer(hWindowDecodeNs);
    const bool final_window = commit_end >= nRounds;
    ++acc.windows;
    acc.committedRounds += commit_end - windowBase;
    for (std::size_t l = 0; l < lanes; ++l)
        decodeWindowLane(l, commit_end, final_window);
    syncGrowthWork();
}

std::size_t
SlidingWindowDecoder::finishBatch()
{
    HETARCH_ASSERT(pushedRounds == nRounds,
                   "finishBatch before every round was pushed");
    if (!isWindowed) {
        decodeShots(detColumn.data(), 1, lanes);
    } else {
        for (std::size_t l = 0; l < lanes; ++l) {
            acc.syndromeWeights.record(shotWeight[l]);
            if (shotWeight[l] == 0)
                ++acc.trivialShots;
        }
    }
    return countFailures(obsAccum.data(), 1, lanes);
}

std::size_t
SlidingWindowDecoder::decodeBuffer(const stab::DetectorSamples& samples)
{
    HETARCH_ASSERT(!isWindowed,
                   "decodeBuffer is the whole-buffer batch entry");
    HETARCH_ASSERT(samples.numDetectors == detColumn.size() &&
                       samples.numObservables == obsAccum.size(),
                   "sample buffer does not match the decoder's program");
    decodeShots(samples.detWords.data(), samples.numWords, samples.shots);
    acc.batchShots += samples.shots;
    return countFailures(samples.obsWords.data(), samples.numWords,
                         samples.shots);
}

} // namespace qec
} // namespace hetarch
