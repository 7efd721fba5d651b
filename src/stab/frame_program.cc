#include "stab/frame_program.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <map>
#include <type_traits>
#include <utility>

#include "core/logging.hh"
#include "obs/obs.hh"

namespace hetarch {
namespace stab {

namespace {

// Telemetry.  Compiles happen once per (circuit, call site) — via the
// DecoderCache exactly once per cached setup — so the count is a
// function of the workload, not of scheduling.
obs::Counter& cProgramCompiles = obs::counter("stab.sampler.program_compiles");

/** The noise opcodes end the enum. */
bool
isNoise(FrameOpCode code)
{
    return code >= FrameOpCode::XError;
}

/** Index of a noise opcode: X_ERROR, Z_ERROR, PAULI1, DEPOL1, DEPOL2. */
std::size_t
noiseIndex(FrameOpCode code)
{
    static_assert(static_cast<int>(FrameOpCode::Depol2) -
                          static_cast<int>(FrameOpCode::XError) ==
                      4,
                  "five noise opcodes end the enum");
    return static_cast<std::size_t>(code) -
           static_cast<std::size_t>(FrameOpCode::XError);
}

/**
 * Noise-tape slots of an op: the masks its resolution can produce per
 * 64-shot word (the noise_words accounting; see tapeWords()).
 */
std::uint32_t
tapeSlotsOf(FrameOpCode code)
{
    switch (code) {
      case FrameOpCode::M:
        return 1; // the collapse word
      case FrameOpCode::XError:
      case FrameOpCode::ZError:
        return 1; // the error mask
      case FrameOpCode::Pauli1:
      case FrameOpCode::Depol1:
        return 2; // X-flip and Z-flip masks
      case FrameOpCode::Depol2:
        return 4; // X_a, Z_a, X_b, Z_b masks
      default:
        return 0;
    }
}

/**
 * Mean error events per 64-shot word of each noise opcode (by
 * noiseIndex) on channel @p ch of per-lane error probability @p p: a
 * flip-mask row is non-zero when one of the 64 lanes errs with a Pauli
 * that flips it.
 */
std::array<double, 5>
meanEvents(double p, const NoiseChannel& ch)
{
    const double q = p > 0.0 ? std::min(p, 1.0) : 0.0; // NaN -> 0
    const auto nonzero = [q](double share) {
        return 1.0 - std::pow(1.0 - q * share, 64);
    };
    return {nonzero(1.0), nonzero(1.0),
            nonzero(ch.pickXY) + nonzero(1.0 - ch.pickX),
            2.0 * nonzero(2.0 / 3.0), 4.0 * nonzero(8.0 / 15.0)};
}

/**
 * The clean-lane run before the next erring lane for a draw
 * @p r < ch.erring[limit]: the largest k with ch.erring[k] <= r, which
 * is below limit.  The bucket of r's leading bits gives the run at the
 * bucket's lower edge; buckets are fine enough that one branchless
 * step almost always finishes it, and the exact scan after it rarely
 * runs.
 */
[[gnu::always_inline]] inline unsigned
cleanRun(const NoiseChannel& ch, std::uint64_t r)
{
    unsigned k = ch.runStart[r >> ch.bucketShift];
    k += ch.erring[k + 1] <= r;
    while (ch.erring[k + 1] <= r)
        ++k;
    return k;
}

/**
 * Visit the erring lanes of one 64-lane word of @p ch's Bernoulli
 * trials in increasing order, drawing exactly what contract v2 says
 * (see frame_program.hh).  Returns the erring-lane mask.
 */
template <typename Visit>
[[gnu::always_inline]] inline std::uint64_t
forEachErringLane(const NoiseChannel& ch, Rng& rng, Visit&& visit)
{
    if (ch.certain) {
        for (unsigned lane = 0; lane < 64; ++lane)
            visit(lane);
        return ~std::uint64_t{0};
    }
    std::uint64_t r = rng();
    if (r >= ch.erring[64])
        return 0;
    std::uint64_t err = 0;
    unsigned lane = cleanRun(ch, r);
    for (;;) {
        err |= std::uint64_t{1} << lane;
        visit(lane);
        if (lane == 63)
            break;
        r = rng();
        if (r >= ch.erring[63 - lane]) // the lanes after this one
            break;
        lane += 1 + cleanRun(ch, r);
    }
    return err;
}

/**
 * Resolve noise op @p op over one 64-lane word under RNG contract v2.
 * Returns the erring-lane mask; when it is non-zero, @p m holds the
 * flips of the op's four frame rows X_a, Z_a, X_b, Z_b (zero where the
 * op cannot flip).  Forced inline, like the helpers above, so the
 * caller's generator copy never leaves registers.
 */
[[gnu::always_inline]] inline std::uint64_t
resolveNoise(const FrameOp& op, const NoiseChannel& ch, Rng& rng,
             std::uint64_t (&m)[4])
{
    std::uint64_t fx = 0, fz = 0, gx = 0, gz = 0;
    const std::uint64_t err =
        forEachErringLane(ch, rng, [&](unsigned lane) {
            const std::uint64_t bit = std::uint64_t{1} << lane;
            switch (op.code) {
              case FrameOpCode::Depol1: {
                const std::uint64_t k = rng.uniformInt(3); // X, Y, Z
                fx |= k != 2 ? bit : 0;
                fz |= k != 0 ? bit : 0;
                break;
              }
              case FrameOpCode::Pauli1: {
                const double u = rng.uniform(); // X | Y | Z
                fx |= u < ch.pickXY ? bit : 0;
                fz |= u >= ch.pickX ? bit : 0;
                break;
              }
              case FrameOpCode::Depol2: {
                // Bits of 1..15 are (X_a, Z_a, X_b, Z_b); 0 is II.
                const std::uint64_t v = 1 + rng.uniformInt(15);
                fx |= (v & 1) << lane;
                fz |= ((v >> 1) & 1) << lane;
                gx |= ((v >> 2) & 1) << lane;
                gz |= ((v >> 3) & 1) << lane;
                break;
              }
              default:
                break; // X_ERROR / Z_ERROR: the error mask is the flip
            }
        });
    if (!err)
        return 0;
    if (op.code == FrameOpCode::XError)
        fx = err;
    if (op.code == FrameOpCode::ZError)
        fz = err;
    m[0] = fx;
    m[1] = fz;
    m[2] = gx;
    m[3] = gz;
    return err;
}

/**
 * Call @p body with the block width as a compile-time constant
 * (std::integral_constant), so the row loops below get fixed trip
 * counts: the compiler unrolls them into plain loads and stores instead
 * of looping, or calling memset/memcpy, once per row.
 */
template <typename Body>
void
withBlockWords(std::size_t words, Body&& body)
{
    static_assert(kMaxFrameBlockWords == 8, "one case per block width");
    switch (words) {
      case 1: return body(std::integral_constant<std::size_t, 1>{});
      case 2: return body(std::integral_constant<std::size_t, 2>{});
      case 3: return body(std::integral_constant<std::size_t, 3>{});
      case 4: return body(std::integral_constant<std::size_t, 4>{});
      case 5: return body(std::integral_constant<std::size_t, 5>{});
      case 6: return body(std::integral_constant<std::size_t, 6>{});
      case 7: return body(std::integral_constant<std::size_t, 7>{});
      case 8: return body(std::integral_constant<std::size_t, 8>{});
    }
    HETARCH_PANIC("block width ", words, " out of range");
}

/** dst[j] ^= src[j] over one W-word row. */
inline void
xorRow(std::uint64_t* dst, const std::uint64_t* src, std::size_t w)
{
    for (std::size_t j = 0; j < w; ++j)
        dst[j] ^= src[j];
}

/** Exchange two W-word rows. */
inline void
swapRows(std::uint64_t* a, std::uint64_t* b, std::size_t w)
{
    for (std::size_t j = 0; j < w; ++j)
        std::swap(a[j], b[j]);
}

/** Constants of one distinct channel; see NoiseChannel. */
NoiseChannel
makeChannel(double p, double pick_x, double pick_xy)
{
    NoiseChannel ch;
    ch.certain = p >= 1.0;
    ch.pickX = pick_x;
    ch.pickXY = pick_xy;
    if (ch.certain || !(p > 0.0))
        return ch; // erring stays all-zero: no draw ever errs
    // 1 - (1-p)^k through expm1/log1p keeps tiny p at full double
    // precision; the running max keeps the table non-decreasing.
    const double log_clean = std::log1p(-p);
    for (unsigned k = 1; k <= 64; ++k) {
        const double e = -std::expm1(static_cast<double>(k) * log_clean);
        const std::uint64_t t =
            e >= 1.0 ? ~std::uint64_t{0}
                     : static_cast<std::uint64_t>(std::ldexp(e, 64));
        ch.erring[k] = std::max(ch.erring[k - 1], t);
    }
    // Buckets of width 2^bucketShift cover every erring draw
    // [0, erring[64]); each starts at the run of its lower edge.
    const std::uint64_t top = ch.erring[64] - 1;
    while ((top >> ch.bucketShift) >= ch.runStart.size())
        ++ch.bucketShift;
    unsigned k = 0;
    for (std::size_t b = 0; b < ch.runStart.size(); ++b) {
        const std::uint64_t edge = std::uint64_t{b} << ch.bucketShift;
        while (k < 64 && ch.erring[k + 1] <= edge)
            ++k;
        ch.runStart[b] = static_cast<std::uint8_t>(k);
    }
    return ch;
}

} // namespace

std::shared_ptr<const FrameProgram>
FrameProgram::compile(const Circuit& circuit)
{
    auto prog = std::make_shared<FrameProgram>();
    prog->nQubits = circuit.numQubits();
    prog->nMeas = circuit.numMeasurements();
    prog->nDets = circuit.numDetectors();
    prog->nObs = circuit.numObservables();

    // One NoiseChannel per distinct (p, PAULI1 split): a d=13 memory
    // circuit has ~20k noise ops but only a handful of channels.
    std::map<std::array<double, 3>, std::uint32_t> channel_ids;
    std::vector<std::array<double, 5>> channel_events;
    const auto channel = [&](double p, double pick_x, double pick_xy) {
        const auto [it, fresh] = channel_ids.try_emplace(
            {p, pick_x, pick_xy},
            static_cast<std::uint32_t>(prog->channels.size()));
        if (fresh) {
            prog->channels.push_back(makeChannel(p, pick_x, pick_xy));
            channel_events.push_back(meanEvents(p, prog->channels.back()));
        }
        return it->second;
    };

    // Observable includes are concatenated per id; XOR-folding the
    // combined list equals XOR-accumulating the individual includes.
    std::vector<std::vector<std::uint32_t>> obs_meas(prog->nObs);

    // Slice tracking: a boundary is inserted just before a qubit's
    // second measurement since the previous boundary, so one slice
    // covers one measurement "round" (each detector and record belongs
    // to exactly one slice; gate ops of the next round may spill into
    // the previous slice, which only affects execution granularity).
    constexpr std::uint32_t kNever = 0xffffffffu;
    std::vector<std::uint32_t> meas_slice(prog->nQubits, kNever);
    std::uint32_t cur_slice = 0;
    std::uint32_t meas_count = 0;
    std::uint32_t m_ops = 0;
    std::uint32_t slot = 0;
    double expected = 0.0;
    prog->eventPrefix.push_back(0.0);
    FrameSliceInfo open; // ranges accumulate; begin fields are current
    const auto close_slice = [&] {
        prog->eventPrefix.push_back(expected);
        open.opEnd = static_cast<std::uint32_t>(prog->replayOps.size());
        open.rngEnd = static_cast<std::uint32_t>(prog->rngOps.size());
        open.tapeEnd = slot;
        open.collapseEnd = m_ops;
        open.measEnd = meas_count;
        open.detEnd =
            static_cast<std::uint32_t>(prog->detOffsets.size() - 1);
        prog->slices.push_back(open);
        open.opBegin = open.opEnd;
        open.rngBegin = open.rngEnd;
        open.tapeBegin = open.tapeEnd;
        open.collapseBegin = open.collapseEnd;
        open.measBegin = open.measEnd;
        open.detBegin = open.detEnd;
        ++cur_slice;
    };

    // Size both op lists up front (a zero-probability PAULI1 counts but
    // is dropped below): one exact allocation each instead of a chain
    // of doubling copies, which also left every later d = 7 setup
    // paging in ~1 MB more.
    std::size_t n_rng = 0, n_replay = 0;
    for (const auto& op : circuit.ops()) {
        switch (op.code) {
          case OpCode::X:
          case OpCode::Y:
          case OpCode::Z:
          case OpCode::DETECTOR:
          case OpCode::OBSERVABLE:
            break;
          case OpCode::X_ERROR:
          case OpCode::Z_ERROR:
          case OpCode::PAULI1:
          case OpCode::DEPOL1:
          case OpCode::DEPOL2:
            ++n_rng;
            break;
          case OpCode::M:
            ++n_rng;
            ++n_replay;
            break;
          default:
            ++n_replay;
        }
    }
    prog->rngOps.reserve(n_rng);
    prog->replayOps.reserve(n_replay);

    prog->detOffsets.push_back(0);
    for (const auto& op : circuit.ops()) {
        FrameOp f{};
        f.a = op.targets.empty() ? 0 : op.targets[0];
        f.b = op.targets.size() > 1 ? op.targets[1] : 0;
        switch (op.code) {
          case OpCode::H:
            f.code = FrameOpCode::H;
            break;
          case OpCode::S:
          case OpCode::SDG:
            f.code = FrameOpCode::SGate;
            break;
          case OpCode::X:
          case OpCode::Y:
          case OpCode::Z:
            continue; // Paulis commute with the frame; no rng draw
          case OpCode::CX:
            f.code = FrameOpCode::CX;
            break;
          case OpCode::CZ:
            f.code = FrameOpCode::CZ;
            break;
          case OpCode::SWAP:
            f.code = FrameOpCode::Swap;
            break;
          case OpCode::M:
          case OpCode::MR:
            f.code = op.code == OpCode::M ? FrameOpCode::M
                                          : FrameOpCode::MR;
            if (meas_slice[f.a] == cur_slice)
                close_slice();
            meas_slice[f.a] = cur_slice;
            ++meas_count;
            break;
          case OpCode::R:
            f.code = FrameOpCode::R;
            break;
          case OpCode::X_ERROR:
            f.code = FrameOpCode::XError;
            f.channel = channel(op.params[0], 0.0, 0.0);
            break;
          case OpCode::Z_ERROR:
            f.code = FrameOpCode::ZError;
            f.channel = channel(op.params[0], 0.0, 0.0);
            break;
          case OpCode::PAULI1: {
            const double px = op.params[0];
            const double py = op.params[1];
            const double pz = op.params[2];
            const double ptot = px + py + pz;
            if (ptot <= 0.0)
                continue; // the identity channel: no effect, no draw
            f.code = FrameOpCode::Pauli1;
            f.channel = channel(ptot, px / ptot, (px + py) / ptot);
            break;
          }
          case OpCode::DEPOL1:
            f.code = FrameOpCode::Depol1;
            f.channel = channel(op.params[0], 0.0, 0.0);
            break;
          case OpCode::DEPOL2:
            f.code = FrameOpCode::Depol2;
            f.channel = channel(op.params[0], 0.0, 0.0);
            break;
          case OpCode::DETECTOR:
            for (auto m : op.targets)
                prog->detMeas.push_back(m);
            prog->detOffsets.push_back(
                static_cast<std::uint32_t>(prog->detMeas.size()));
            continue;
          case OpCode::OBSERVABLE:
            for (auto m : op.targets)
                obs_meas[op.id].push_back(m);
            continue;
        }
        // Noise ops leave the replay stream: each is tagged with the
        // replay op it precedes, and its errors are applied there.
        // RNG-consuming ops (noise and M) form the resolution list, in
        // stream order, which is the order contract v2 draws in.
        slot += tapeSlotsOf(f.code);
        if (isNoise(f.code)) {
            f.site = static_cast<std::uint32_t>(prog->replayOps.size());
            prog->rngOps.push_back(f);
            expected += channel_events[f.channel][noiseIndex(f.code)];
        } else {
            if (f.code == FrameOpCode::M) {
                prog->rngOps.push_back(f);
                ++m_ops;
            }
            prog->replayOps.push_back(f);
        }
    }
    prog->nTapeSlots = slot;
    HETARCH_ASSERT(prog->detOffsets.size() == prog->nDets + 1,
                   "detector count mismatch while compiling");

    prog->obsOffsets.push_back(0);
    for (auto& meas : obs_meas) {
        prog->obsMeas.insert(prog->obsMeas.end(), meas.begin(),
                             meas.end());
        prog->obsOffsets.push_back(
            static_cast<std::uint32_t>(prog->obsMeas.size()));
    }

    // Close the tail slice; even an annotation-only or empty circuit
    // gets one slice so streaming callers never special-case.
    close_slice();
    HETARCH_ASSERT(prog->slices.back().measEnd == prog->nMeas,
                   "measurement count mismatch while slicing");

    // Assign each observable include to the slice that records its
    // measurement, so streaming folds can retire observable
    // contributions as soon as a slice completes.
    const auto slice_of = [&](std::uint32_t m) {
        std::size_t lo = 0, hi = prog->slices.size() - 1;
        while (lo < hi) {
            const std::size_t mid = (lo + hi) / 2;
            if (m < prog->slices[mid].measEnd)
                hi = mid;
            else
                lo = mid + 1;
        }
        return lo;
    };
    std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>>
        by_slice(prog->slices.size());
    for (std::size_t k = 0; k < prog->nObs; ++k)
        for (const auto* m = prog->obsMeasBegin(k);
             m != prog->obsMeasEnd(k); ++m)
            by_slice[slice_of(*m)].emplace_back(
                static_cast<std::uint32_t>(k), *m);
    for (std::size_t s = 0; s < prog->slices.size(); ++s) {
        prog->slices[s].obsBegin =
            static_cast<std::uint32_t>(prog->sliceObsId.size());
        for (const auto& [k, m] : by_slice[s]) {
            prog->sliceObsId.push_back(k);
            prog->sliceObsMeas.push_back(m);
        }
        prog->slices[s].obsEnd =
            static_cast<std::uint32_t>(prog->sliceObsId.size());
    }

    // Measurement lookback: how far behind its own last record any
    // slice's folds reach.  The streaming ring must keep a record
    // alive from when it is written until the slice that folds it
    // finishes, i.e. hold measEnd(s) - m records.
    std::size_t look = 1;
    for (const auto& s : prog->slices) {
        for (std::size_t d = s.detBegin; d < s.detEnd; ++d)
            for (const auto* m = prog->detMeasBegin(d);
                 m != prog->detMeasEnd(d); ++m)
                look = std::max<std::size_t>(look, s.measEnd - *m);
        for (std::size_t e = s.obsBegin; e < s.obsEnd; ++e)
            look = std::max<std::size_t>(
                look, s.measEnd - prog->sliceObsMeas[e]);
    }
    prog->lookback = look;
    prog->ringCapacity = std::bit_ceil(look);

    cProgramCompiles.add();
    return prog;
}

std::vector<FrameOp>
FrameProgram::ops() const
{
    // Each noise op goes just before the replay op at its site; the M
    // ops of the resolution list are taken from the replay list.
    std::vector<FrameOp> out;
    out.reserve(replayOps.size() + rngOps.size());
    auto r = rngOps.begin();
    for (std::size_t i = 0; i <= replayOps.size(); ++i) {
        for (; r != rngOps.end() &&
               (r->code == FrameOpCode::M || r->site == i);
             ++r)
            if (r->code != FrameOpCode::M)
                out.push_back(*r);
        if (i < replayOps.size())
            out.push_back(replayOps[i]);
    }
    return out;
}

void
FrameProgram::beginBlock(FrameBlockScratch& scratch, std::size_t words,
                         bool ring) const
{
    HETARCH_ASSERT(words >= 1 && words <= kMaxFrameBlockWords,
                   "block width ", words, " out of range");
    scratch.words = words;
    scratch.measMask = ring ? ringCapacity - 1 : ~std::size_t{0};
    scratch.frame.assign(2 * nQubits * words, 0);
    scratch.meas.assign((ring ? ringCapacity : nMeas) * words, 0);
    scratch.fold.resize(words);
    scratch.eventCount = 0;
}

std::uint64_t
FrameProgram::resolveSlices(FrameBlockScratch& scratch, std::size_t first,
                            std::size_t last, Rng& generator) const
{
    const std::size_t words = scratch.words;
    HETARCH_ASSERT(first < last && last <= slices.size(),
                   "slice range [", first, ", ", last, ") out of range");
    HETARCH_ASSERT(words == 1 || (first == 0 && last == slices.size()),
                   "RNG contract v2 draws word by word over the whole "
                   "program; a partial slice range runs at one word");
    const auto& lo = slices[first];
    const auto& hi = slices[last - 1];
    scratch.collapse.resize((hi.collapseEnd - lo.collapseBegin) * words);

    // Word by word, op by op: the draw order of contract v2.  A clean
    // noise op costs one draw and one compare and leaves nothing; an
    // erring one writes its four flip masks as events and keeps the
    // non-zero ones, without a branch per mask.  The generator is
    // copied so its state stays in registers (event stores could alias
    // the caller's).
    Rng rng = generator;
    std::uint64_t flips = 0;
    auto* collapse = scratch.collapse.data();
    // Size the events for the range's mean count M plus M/16 + 64,
    // several standard deviations of the count at any M, so a block
    // carries no doubling slack and rarely grows (by doubling, below).
    auto& events = scratch.events;
    const double mean = (eventPrefix[last] - eventPrefix[first]) *
                        static_cast<double>(words);
    const auto want = static_cast<std::size_t>(mean + mean / 16) + 64;
    if (events.size() < want)
        events.resize(want);
    std::size_t n = 0;
    const auto z_rows = static_cast<std::uint32_t>(nQubits * words);
    const FrameOp* ops_begin = rngOps.data() + lo.rngBegin;
    const FrameOp* ops_end = rngOps.data() + hi.rngEnd;
    std::uint64_t m[4] = {};
    for (std::size_t w = 0; w < words; ++w) {
        std::uint64_t* c = collapse + w;
        for (const FrameOp* op = ops_begin; op != ops_end; ++op) {
            if (op->code == FrameOpCode::M) {
                *c = rng();
                c += words;
                continue;
            }
            const std::uint64_t err =
                resolveNoise(*op, channels[op->channel], rng, m);
            if (!err)
                continue;
            flips += static_cast<std::uint64_t>(std::popcount(err));
            if (events.size() - n < 4)
                events.resize(2 * n + 64);
            const auto xa = static_cast<std::uint32_t>(op->a * words + w);
            const auto xb = static_cast<std::uint32_t>(op->b * words + w);
            const std::uint32_t rows[4] = {xa, z_rows + xa, xb, z_rows + xb};
            for (std::size_t j = 0; j < 4; ++j) {
                events[n] = {op->site, rows[j], m[j]};
                n += m[j] != 0;
            }
        }
    }
    generator = rng;

    if (words > 1) {
        // Each word's events are in site order; a stable counting sort
        // on the site interleaves the W runs into one site-ordered list.
        const std::uint32_t base = lo.opBegin;
        auto& start = scratch.siteStart;
        start.assign(hi.opEnd - base + 2, 0);
        for (std::size_t i = 0; i < n; ++i)
            ++start[events[i].site - base + 1];
        for (std::size_t k = 1; k < start.size(); ++k)
            start[k] += start[k - 1];
        auto& sorted = scratch.sorted;
        if (sorted.size() < events.size())
            sorted.resize(events.size()); // the two swap roles below
        for (std::size_t i = 0; i < n; ++i)
            sorted[start[events[i].site - base]++] = events[i];
        std::swap(events, sorted);
    }
    scratch.eventCount = n;
    return flips;
}

void
FrameProgram::replaySlices(FrameBlockScratch& scratch, std::size_t first,
                           std::size_t last) const
{
    HETARCH_DEBUG_ASSERT(scratch.words >= 1 &&
                             scratch.frame.size() ==
                                 2 * nQubits * scratch.words,
                         "replay on an unprepared scratch");
    // Locals throughout: a store through a frame row may alias any
    // size_t field of the scratch, so reading fields in the loop would
    // reload them after every store.
    auto* x = scratch.frame.data();
    auto* z = x + nQubits * scratch.words;
    auto* meas = scratch.meas.data();
    const std::uint64_t* collapse = scratch.collapse.data();
    const std::size_t mask = scratch.measMask;
    const NoiseEvent* ev = scratch.events.data();
    const NoiseEvent* ev_end = ev + scratch.eventCount;
    std::size_t m = slices[first].measBegin;
    const FrameOp* base = replayOps.data();
    const FrameOp* op = base + slices[first].opBegin;
    const FrameOp* end = base + slices[last - 1].opEnd;
    withBlockWords(scratch.words, [&](auto words) {
        constexpr std::size_t w = decltype(words)::value;
        const auto record = [&](const std::uint64_t* row) {
            std::copy_n(row, w, meas + (m++ & mask) * w);
        };
        for (;; ++ev) {
            // Run the ops up to the next event's site, then apply the
            // event; the last stop is the range's end.
            const FrameOp* stop = ev != ev_end ? base + ev->site : end;
            for (; op != stop; ++op) {
                auto* xa = x + op->a * w;
                auto* za = z + op->a * w;
                auto* xb = x + op->b * w;
                auto* zb = z + op->b * w;
                switch (op->code) {
                  case FrameOpCode::H:
                    swapRows(xa, za, w);
                    break;
                  case FrameOpCode::SGate:
                    xorRow(za, xa, w);
                    break;
                  case FrameOpCode::CX:
                    xorRow(xb, xa, w);
                    xorRow(za, zb, w);
                    break;
                  case FrameOpCode::CZ:
                    xorRow(za, xb, w);
                    xorRow(zb, xa, w);
                    break;
                  case FrameOpCode::Swap:
                    swapRows(xa, xb, w);
                    swapRows(za, zb, w);
                    break;
                  case FrameOpCode::M:
                    record(xa);
                    xorRow(za, collapse, w);
                    collapse += w;
                    break;
                  case FrameOpCode::R:
                    std::fill_n(xa, w, 0);
                    std::fill_n(za, w, 0);
                    break;
                  case FrameOpCode::MR:
                    record(xa);
                    std::fill_n(xa, w, 0);
                    std::fill_n(za, w, 0);
                    break;
                  default:
                    break; // noise ops are resolved into events
                }
            }
            if (ev == ev_end)
                break;
            x[ev->row] ^= ev->mask;
        }
    });
    HETARCH_DEBUG_ASSERT(m == slices[last - 1].measEnd,
                         "measurement count mismatch in replay");
}

void
FrameProgram::foldSlices(FrameBlockScratch& scratch, std::size_t first,
                         std::size_t last, std::uint64_t last_word_mask,
                         std::uint64_t* det_words, std::size_t det_stride,
                         std::uint64_t* obs_words,
                         std::size_t obs_stride) const
{
    const std::size_t mask = scratch.measMask;
    const auto* meas = scratch.meas.data();
    auto* acc = scratch.fold.data();
    const auto& lo = slices[first];
    const auto& hi = slices[last - 1];
    withBlockWords(scratch.words, [&](auto words) {
        constexpr std::size_t w = decltype(words)::value;
        const auto row = [&](std::uint32_t m) {
            return meas + (m & mask) * w;
        };
        for (std::size_t d = lo.detBegin; d < hi.detEnd; ++d) {
            std::fill_n(acc, w, 0);
            for (const auto* m = detMeasBegin(d); m != detMeasEnd(d); ++m)
                xorRow(acc, row(*m), w);
            acc[w - 1] &= last_word_mask;
            std::copy_n(acc, w, det_words + (d - lo.detBegin) * det_stride);
        }
        for (std::size_t k = 0; k < nObs; ++k)
            std::fill_n(obs_words + k * obs_stride, w, 0);
        for (std::size_t e = lo.obsBegin; e < hi.obsEnd; ++e)
            xorRow(obs_words + sliceObsId[e] * obs_stride,
                   row(sliceObsMeas[e]), w);
        for (std::size_t k = 0; k < nObs; ++k)
            obs_words[k * obs_stride + w - 1] &= last_word_mask;
    });
}

std::uint64_t
FrameProgram::resolveNoiseTape(FrameBlockScratch& scratch,
                               std::size_t words, Rng& rng) const
{
    beginBlock(scratch, words, /*ring=*/false);
    return resolveSlices(scratch, 0, slices.size(), rng);
}

void
FrameProgram::replayBlock(FrameBlockScratch& scratch) const
{
    replaySlices(scratch, 0, slices.size());
}

void
FrameProgram::foldAnnotationsBlock(FrameBlockScratch& scratch,
                                   std::uint64_t last_word_mask,
                                   std::uint64_t* det_words,
                                   std::size_t det_stride,
                                   std::uint64_t* obs_words,
                                   std::size_t obs_stride) const
{
    foldSlices(scratch, 0, slices.size(), last_word_mask, det_words,
               det_stride, obs_words, obs_stride);
}

} // namespace stab
} // namespace hetarch
