#include "stab/frame_program.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <map>
#include <utility>

#include "core/logging.hh"
#include "core/simd.hh"
#include "obs/obs.hh"

namespace hetarch {
namespace stab {

namespace {

// Telemetry.  Compiles happen once per (circuit, call site) — via the
// DecoderCache exactly once per cached setup — so the count is a
// function of the workload, not of scheduling.
obs::Counter& cProgramCompiles = obs::counter("stab.sampler.program_compiles");

/** Noise-tape slots an op consumes in block execution. */
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
        return 2; // resolved X-flip and Z-flip masks
      case FrameOpCode::Depol2:
        return 4; // err & v0..v3 (X_a, Z_a, X_b, Z_b masks)
      default:
        return 0;
    }
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
 * Resolve noise op @p op over one 64-lane word.  The single resolver
 * behind both interpretOps (1-word and sliced execution) and
 * resolveNoiseTape (block execution), so the paths cannot drift.
 * Returns the erring-lane mask; when it is non-zero, @p m holds the
 * op's flip masks in tape-slot order (X_ERROR/Z_ERROR: the error
 * mask; PAULI1/DEPOL1: X then Z flips of qubit a; DEPOL2: X_a, Z_a,
 * X_b, Z_b).  Forced inline, like the helpers above, so the callers'
 * generator copies never leave registers.
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
    if (op.code == FrameOpCode::XError || op.code == FrameOpCode::ZError)
        fx = err;
    m[0] = fx;
    m[1] = fz;
    m[2] = gx;
    m[3] = gz;
    return err;
}

/**
 * Interpret ops in [begin, end) over the frame words, delivering each
 * measurement word through @p record.  Shared by the whole-batch and
 * sliced entry points, and resolving noise through resolveNoise like
 * the block path, so every path consumes the RNG stream identically.
 */
template <typename MeasSink>
std::uint64_t
interpretOps(const FrameOp* op, const FrameOp* end,
             const NoiseChannel* channels, std::uint64_t* x,
             std::uint64_t* z, Rng& generator, MeasSink&& record)
{
    // A local copy of the generator can live in registers; the frame
    // stores below could alias the caller's.
    Rng rng = generator;
    std::uint64_t flips = 0;
    std::uint64_t m[4] = {};
    for (; op != end; ++op) {
        switch (op->code) {
          case FrameOpCode::H:
            std::swap(x[op->a], z[op->a]);
            break;
          case FrameOpCode::SGate:
            z[op->a] ^= x[op->a];
            break;
          case FrameOpCode::CX:
            x[op->b] ^= x[op->a];
            z[op->a] ^= z[op->b];
            break;
          case FrameOpCode::CZ:
            z[op->a] ^= x[op->b];
            z[op->b] ^= x[op->a];
            break;
          case FrameOpCode::Swap:
            std::swap(x[op->a], x[op->b]);
            std::swap(z[op->a], z[op->b]);
            break;
          case FrameOpCode::M:
            record(x[op->a]);
            // Measurement collapse randomizes the frame phase.
            z[op->a] ^= rng();
            break;
          case FrameOpCode::R:
            x[op->a] = 0;
            z[op->a] = 0;
            break;
          case FrameOpCode::MR:
            record(x[op->a]);
            x[op->a] = 0;
            z[op->a] = 0;
            break;
          case FrameOpCode::XError:
          case FrameOpCode::ZError:
          case FrameOpCode::Pauli1:
          case FrameOpCode::Depol1:
          case FrameOpCode::Depol2: {
            const std::uint64_t err =
                resolveNoise(*op, channels[op->channel], rng, m);
            if (!err)
                break;
            flips += simd::popcountWord(err);
            if (op->code == FrameOpCode::ZError) {
                z[op->a] ^= m[0];
                break;
            }
            x[op->a] ^= m[0];
            z[op->a] ^= m[1]; // zero for X_ERROR
            if (op->code == FrameOpCode::Depol2) {
                x[op->b] ^= m[2];
                z[op->b] ^= m[3];
            }
            break;
          }
        }
    }
    generator = rng;
    return flips;
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
    const auto channel = [&](double p, double pick_x, double pick_xy) {
        const auto [it, fresh] = channel_ids.try_emplace(
            {p, pick_x, pick_xy},
            static_cast<std::uint32_t>(prog->channels.size()));
        if (fresh)
            prog->channels.push_back(makeChannel(p, pick_x, pick_xy));
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
    FrameSliceInfo open; // ranges accumulate; begin fields are current
    const auto close_slice = [&] {
        open.opEnd = static_cast<std::uint32_t>(prog->stream.size());
        open.measEnd = meas_count;
        open.detEnd =
            static_cast<std::uint32_t>(prog->detOffsets.size() - 1);
        prog->slices.push_back(open);
        open.opBegin = open.opEnd;
        open.measBegin = open.measEnd;
        open.detBegin = open.detEnd;
        ++cur_slice;
    };

    prog->detOffsets.push_back(0);
    for (const auto& op : circuit.ops()) {
        FrameOp f;
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
        prog->stream.push_back(f);
    }
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

    // Noise-tape layout for block execution: assign every
    // RNG-consuming op a contiguous slot range in stream order (the
    // resolution order), and keep a dense copy of just those ops so
    // the per-word resolution pass never dispatches pure Cliffords.
    std::uint32_t slot = 0;
    for (auto& f : prog->stream) {
        const std::uint32_t slots = tapeSlotsOf(f.code);
        if (slots == 0)
            continue;
        f.tape = slot;
        slot += slots;
        prog->rngOps.push_back(f);
    }
    prog->nTapeSlots = slot;

    cProgramCompiles.add();
    return prog;
}

std::uint64_t
FrameProgram::runBatch(FrameScratch& scratch, Rng& rng) const
{
    scratch.x.assign(nQubits, 0);
    scratch.z.assign(nQubits, 0);
    scratch.meas.clear();
    scratch.meas.reserve(nMeas);
    return interpretOps(stream.data(), stream.data() + stream.size(),
                        channels.data(), scratch.x.data(), scratch.z.data(),
                        rng,
                        [&](std::uint64_t w) { scratch.meas.push_back(w); });
}

std::uint64_t
FrameProgram::resolveNoiseTape(FrameBlockScratch& scratch,
                               std::size_t words, Rng& generator) const
{
    HETARCH_ASSERT(words >= 1 && words <= kMaxFrameBlockWords,
                   "block width ", words, " out of range");
    scratch.words = words;
    scratch.x.assign(nQubits * words, 0);
    scratch.z.assign(nQubits * words, 0);
    scratch.meas.assign(nMeas * words, 0);
    scratch.tape.assign(nTapeSlots * words, 0);
    scratch.fold.resize(words);

    // Word-by-word, op-by-op: exactly the draw order W sequential
    // runBatch calls consume.  Errors are rare, so the tape starts
    // zeroed and only erring ops (and the collapse words) write their
    // slot-major rows; a clean op costs one draw and one compare.  The
    // generator is copied so its state stays in registers (tape stores
    // could alias the caller's).
    Rng rng = generator;
    std::uint64_t flips = 0;
    auto* tape = scratch.tape.data();
    std::uint64_t m[4] = {};
    for (std::size_t w = 0; w < words; ++w) {
        for (const auto& op : rngOps) {
            auto* slot = tape + op.tape * words + w;
            if (op.code == FrameOpCode::M) {
                *slot = rng();
                continue;
            }
            const std::uint64_t err =
                resolveNoise(op, channels[op.channel], rng, m);
            if (!err)
                continue;
            flips += simd::popcountWord(err);
            for (std::uint32_t j = 0; j < tapeSlotsOf(op.code); ++j)
                slot[j * words] = m[j];
        }
    }
    generator = rng;
    return flips;
}

void
FrameProgram::replayBlock(FrameBlockScratch& scratch) const
{
    const std::size_t w = scratch.words;
    HETARCH_DEBUG_ASSERT(w >= 1 && scratch.x.size() == nQubits * w,
                         "replayBlock on an unprepared scratch");
    auto* x = scratch.x.data();
    auto* z = scratch.z.data();
    auto* meas = scratch.meas.data();
    const auto* tape = scratch.tape.data();
    std::size_t m = 0;
    for (const auto& op : stream) {
        auto* xa = x + op.a * w;
        auto* za = z + op.a * w;
        switch (op.code) {
          case FrameOpCode::H:
            simd::swapWords(xa, za, w);
            break;
          case FrameOpCode::SGate:
            simd::xorWords(za, xa, w);
            break;
          case FrameOpCode::CX:
            simd::xorWords(x + op.b * w, xa, w);
            simd::xorWords(za, z + op.b * w, w);
            break;
          case FrameOpCode::CZ:
            simd::xorWords(za, x + op.b * w, w);
            simd::xorWords(z + op.b * w, xa, w);
            break;
          case FrameOpCode::Swap:
            simd::swapWords(xa, x + op.b * w, w);
            simd::swapWords(za, z + op.b * w, w);
            break;
          case FrameOpCode::M:
            simd::copyWords(meas + m * w, xa, w);
            m += 1;
            simd::xorWords(za, tape + op.tape * w, w);
            break;
          case FrameOpCode::R:
            simd::zeroWords(xa, w);
            simd::zeroWords(za, w);
            break;
          case FrameOpCode::MR:
            simd::copyWords(meas + m * w, xa, w);
            m += 1;
            simd::zeroWords(xa, w);
            simd::zeroWords(za, w);
            break;
          case FrameOpCode::XError:
            simd::xorWords(xa, tape + op.tape * w, w);
            break;
          case FrameOpCode::ZError:
            simd::xorWords(za, tape + op.tape * w, w);
            break;
          case FrameOpCode::Pauli1:
          case FrameOpCode::Depol1:
            simd::xorWords(xa, tape + op.tape * w, w);
            simd::xorWords(za, tape + (op.tape + 1) * w, w);
            break;
          case FrameOpCode::Depol2:
            simd::xorWords(xa, tape + op.tape * w, w);
            simd::xorWords(za, tape + (op.tape + 1) * w, w);
            simd::xorWords(x + op.b * w, tape + (op.tape + 2) * w, w);
            simd::xorWords(z + op.b * w, tape + (op.tape + 3) * w, w);
            break;
        }
    }
    HETARCH_DEBUG_ASSERT(m == nMeas, "measurement count mismatch in "
                                     "block replay");
}

std::uint64_t
FrameProgram::runBatchBlock(FrameBlockScratch& scratch, std::size_t words,
                            Rng& rng) const
{
    const std::uint64_t flips = resolveNoiseTape(scratch, words, rng);
    replayBlock(scratch);
    return flips;
}

void
FrameProgram::foldAnnotationsBlock(FrameBlockScratch& scratch,
                                   std::uint64_t last_word_mask,
                                   std::uint64_t* det_words,
                                   std::size_t det_stride,
                                   std::uint64_t* obs_words,
                                   std::size_t obs_stride) const
{
    const std::size_t w = scratch.words;
    const auto* meas = scratch.meas.data();
    auto* acc = scratch.fold.data();
    const auto fold_row = [&](const std::uint32_t* begin,
                              const std::uint32_t* end,
                              std::uint64_t* out) {
        if (begin == end) {
            simd::zeroWords(acc, w);
        } else {
            simd::copyWords(acc, meas + *begin * w, w);
            for (const auto* m = begin + 1; m != end; ++m)
                simd::xorWords(acc, meas + *m * w, w);
        }
        acc[w - 1] &= last_word_mask;
        for (std::size_t j = 0; j < w; ++j)
            out[j] = acc[j];
    };
    for (std::size_t d = 0; d < nDets; ++d)
        fold_row(detMeasBegin(d), detMeasEnd(d),
                 det_words + d * det_stride);
    for (std::size_t k = 0; k < nObs; ++k)
        fold_row(obsMeasBegin(k), obsMeasEnd(k),
                 obs_words + k * obs_stride);
}

void
FrameProgram::beginStream(FrameStreamScratch& scratch) const
{
    scratch.x.assign(nQubits, 0);
    scratch.z.assign(nQubits, 0);
    scratch.measRing.assign(ringCapacity, 0);
    scratch.measCursor = 0;
}

std::uint64_t
FrameProgram::runSlice(std::size_t s, FrameStreamScratch& scratch,
                       Rng& rng) const
{
    const auto& info = slices[s];
    HETARCH_DEBUG_ASSERT(scratch.measCursor == info.measBegin,
                         "slices must run in order (cursor ",
                         scratch.measCursor, ", slice starts at ",
                         info.measBegin, ")");
    const std::size_t mask = ringCapacity - 1;
    auto* ring = scratch.measRing.data();
    return interpretOps(stream.data() + info.opBegin,
                        stream.data() + info.opEnd, channels.data(),
                        scratch.x.data(), scratch.z.data(), rng,
                        [&](std::uint64_t w) {
                            ring[scratch.measCursor++ & mask] = w;
                        });
}

void
FrameProgram::foldAnnotations(const FrameScratch& scratch,
                              std::uint64_t lane_mask,
                              std::uint64_t* det_words,
                              std::size_t det_stride,
                              std::uint64_t* obs_words,
                              std::size_t obs_stride) const
{
    const auto* meas = scratch.meas.data();
    for (std::size_t d = 0; d < nDets; ++d) {
        std::uint64_t word = 0;
        for (const auto* m = detMeasBegin(d); m != detMeasEnd(d); ++m)
            word ^= meas[*m];
        det_words[d * det_stride] = word & lane_mask;
    }
    for (std::size_t k = 0; k < nObs; ++k) {
        std::uint64_t word = 0;
        for (const auto* m = obsMeasBegin(k); m != obsMeasEnd(k); ++m)
            word ^= meas[*m];
        obs_words[k * obs_stride] = word & lane_mask;
    }
}

void
FrameProgram::foldSlice(std::size_t s, const FrameStreamScratch& scratch,
                        std::uint64_t lane_mask, std::uint64_t* det_words,
                        std::size_t det_stride, std::uint64_t* obs_words,
                        std::size_t obs_stride) const
{
    const auto& info = slices[s];
    HETARCH_DEBUG_ASSERT(scratch.measCursor == info.measEnd,
                         "foldSlice(", s, ") before its runSlice");
    const std::size_t mask = ringCapacity - 1;
    const auto* ring = scratch.measRing.data();
    for (std::size_t d = info.detBegin; d < info.detEnd; ++d) {
        std::uint64_t word = 0;
        for (const auto* m = detMeasBegin(d); m != detMeasEnd(d); ++m)
            word ^= ring[*m & mask];
        det_words[(d - info.detBegin) * det_stride] = word & lane_mask;
    }
    for (std::size_t e = info.obsBegin; e < info.obsEnd; ++e)
        obs_words[sliceObsId[e] * obs_stride] ^=
            ring[sliceObsMeas[e] & mask] & lane_mask;
}

namespace {

std::size_t
clampBlockWords(long words)
{
    if (words < 1)
        return 1;
    if (words > static_cast<long>(kMaxFrameBlockWords))
        return kMaxFrameBlockWords;
    return static_cast<std::size_t>(words);
}

std::atomic<std::size_t>&
blockWordsState()
{
    // Default: the full 8-word block (512 shots), overridable once via
    // the environment.  Atomic because TSan-covered tests flip the
    // width around chunk-parallel experiments.
    static std::atomic<std::size_t> state{[] {
        if (const char* env = std::getenv("HETARCH_SIMD_WIDTH"))
            return clampBlockWords(std::strtol(env, nullptr, 10));
        return kMaxFrameBlockWords;
    }()};
    return state;
}

} // namespace

std::size_t
frameBlockWords()
{
    return blockWordsState().load(std::memory_order_relaxed);
}

void
setFrameBlockWords(std::size_t words)
{
    blockWordsState().store(
        clampBlockWords(static_cast<long>(words)),
        std::memory_order_relaxed);
}

} // namespace stab
} // namespace hetarch
