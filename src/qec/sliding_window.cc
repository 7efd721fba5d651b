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

/**
 * Transpose a 64x64 bit matrix in place: bit j of a[i] moves to bit i
 * of a[j].  Six rounds of block swaps (Hacker's Delight, 7-3).
 */
void
transpose64(std::uint64_t (&a)[64])
{
    std::uint64_t m = 0x00000000ffffffffull;
    for (unsigned j = 32; j != 0; j >>= 1, m ^= m << j) {
        for (unsigned k = 0; k < 64; k = (k + j + 1) & ~j) {
            const std::uint64_t t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k] ^= t << j;
            a[k + j] ^= t;
        }
    }
}

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
    // One spare word, so carryBits can read the word after any group.
    carry.assign(prog.numDetectors() / 64 + 2, 0);
    const auto& det2node = graph.detectorToNode();
    for (std::size_t d = 0; d < det2node.size(); ++d)
        if (det2node[d] >= 0)
            carry[d / 64] |= std::uint64_t{1} << (d % 64);
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

    // Append each lane's fired carrying-class nodes to its pending
    // list; the pending lists are the only syndrome storage, so a
    // consumed block can be recycled immediately.
    const std::size_t groups = transposeWord(block.detWords.data(), 1,
                                             block.detWords.size());
    const auto& det2node = graph.detectorToNode();
    for (std::size_t g = 0; g < groups; ++g) {
        const std::size_t first = block.detBegin + g * 64;
        const std::uint64_t carried = carryBits(first);
        for (std::size_t l = 0; l < lanes; ++l) {
            const std::uint64_t fired = rows[l * groups + g];
            shotWeight[l] += static_cast<std::uint32_t>(std::popcount(fired));
            for (std::uint64_t b = fired & carried; b; b &= b - 1)
                pending[l].push_back(static_cast<std::uint32_t>(
                    det2node[first + std::countr_zero(b)]));
        }
    }

    if (pushedRounds == nRounds) {
        decodeWindow(nRounds); // final window commits all
    } else if (pushedRounds - windowBase == window) {
        decodeWindow(windowBase + commit);
        windowBase += commit;
    }
}

std::uint64_t
SlidingWindowDecoder::carryBits(std::size_t first) const
{
    const std::size_t k = first / 64;
    const std::size_t shift = first % 64;
    const std::uint64_t bits = carry[k] >> shift;
    return shift ? bits | carry[k + 1] << (64 - shift) : bits;
}

std::size_t
SlidingWindowDecoder::transposeWord(const std::uint64_t* det,
                                    std::size_t stride, std::size_t n_det)
{
    const std::size_t groups = (n_det + 63) / 64;
    rows.resize(64 * groups);
    std::uint64_t block[64];
    for (std::size_t g = 0; g < groups; ++g) {
        const std::size_t n = std::min<std::size_t>(64, n_det - g * 64);
        for (std::size_t i = 0; i < n; ++i)
            block[i] = det[(g * 64 + i) * stride];
        std::fill(block + n, block + 64, 0);
        transpose64(block);
        for (std::size_t l = 0; l < 64; ++l)
            rows[l * groups + g] = block[l];
    }
    return groups;
}

void
SlidingWindowDecoder::decodeShots(const std::uint64_t* det,
                                  std::size_t stride, std::size_t shots)
{
    // One 64-shot word at a time: transpose it into shot-major rows,
    // then walk each shot's fired detectors in ascending order.  Every
    // fired detector counts toward the syndrome weight; union-find
    // reads only the carrying-class ones, as nodes of its graph.  Each
    // shot decodes once, in shot order: reusing repeated syndromes
    // never paid for the sort it needs.
    const auto& det2node = graph.detectorToNode();
    const std::size_t n_det = detColumn.size();
    predicted.assign(shots, 0);
    for (std::size_t s0 = 0; s0 < shots; s0 += 64) {
        const std::size_t groups = transposeWord(det + s0 / 64, stride,
                                                 n_det);
        for (std::size_t l = 0; l < 64 && s0 + l < shots; ++l) {
            const std::uint64_t* row = rows.data() + l * groups;
            std::size_t weight = 0;
            for (std::size_t g = 0; g < groups; ++g)
                weight += static_cast<std::size_t>(std::popcount(row[g]));
            acc.syndromeWeights.record(weight);
            // Weight-0 fast path: both decoders map the empty syndrome
            // to the zero correction.
            if (weight == 0) {
                ++acc.trivialShots;
                continue;
            }
            idsBuf.clear();
            if (kind == DecoderKind::GreedyDem) {
                for (std::size_t g = 0; g < groups; ++g)
                    for (std::uint64_t b = row[g]; b; b &= b - 1)
                        idsBuf.push_back(static_cast<std::uint32_t>(
                            g * 64 + std::countr_zero(b)));
                predicted[s0 + l] =
                    setup.greedy->decodeSparse(idsBuf, residual,
                                               residualNext);
                continue;
            }
            for (std::size_t g = 0; g < groups; ++g)
                for (std::uint64_t b = row[g] & carry[g]; b; b &= b - 1)
                    idsBuf.push_back(static_cast<std::uint32_t>(
                        det2node[g * 64 + std::countr_zero(b)]));
            predicted[s0 + l] = dec.decodeSparse(idsBuf);
        }
    }
    if (kind != DecoderKind::GreedyDem)
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
