/**
 * @file
 * Traced mode: drive the shot pipeline through the public calls of each
 * layer and time every call from outside with spans, so the per-layer
 * split needs no instrumentation inside the library.
 *
 * Span tree (each span records name, start, end, parent and run id):
 *
 *   setup -> {dem, program, graph}
 *   run -> chunk -> {sample -> {resolve, replay, fold}, decode}   batch
 *   run -> batch -> {next, push}                                  stream
 *
 * The batch run mirrors runMemoryExperiment: the same ShotScheduler
 * chunks and chunkRng streams over exec::parallelFor, with the sampler
 * split into FrameProgram's two-pass block calls.  The stream run
 * mirrors the inline (single consumer) shape of
 * runStreamingMemoryExperiment.  The workload's own path takes the run;
 * the other path runs as a short probe so every layer reports on every
 * workload.  Every traced call is paired with an
 * untraced library call on the same seed; the pair must agree exactly,
 * and their speed ratio is the tracing overhead.  Spans stay in memory
 * until the run ends, then go out as Chrome trace-event JSON.
 */

#include <atomic>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <string_view>
#include <unordered_map>

#include "core/rng.hh"
#include "exec/shot_scheduler.hh"
#include "exec/thread_pool.hh"
#include "qec/sliding_window.hh"
#include "qec/surface_circuit.hh"
#include "qec/union_find.hh"
#include "stab/frame.hh"
#include "stab/frame_program.hh"

#include "bench.hh"

namespace shotbench {

namespace {

constexpr auto kUnionFind = qec::DecoderKind::UnionFind;

std::uint64_t
nowNs()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch)
            .count());
}

/** One closed span. */
struct Span
{
    const char* name = "";
    std::uint64_t begin = 0; ///< ns since the process epoch
    std::uint64_t end = 0;
    std::uint32_t id = 0;
    std::uint32_t parent = 0; ///< 0 for a root span
    std::uint32_t run = 0;    ///< the experiment call or setup repeat
    std::uint32_t thread = 0; ///< small per-thread tag
};

std::atomic<std::uint32_t> gNextSpanId{1};

std::uint32_t
threadTag()
{
    static std::atomic<std::uint32_t> next{1};
    thread_local const std::uint32_t tag =
        next.fetch_add(1, std::memory_order_relaxed);
    return tag;
}

/**
 * RAII span appended to a thread-private buffer (no locking on the hot
 * path).  A null buffer makes the scope a no-op, so the same code runs
 * untraced for the decomposition self-check.
 */
class SpanScope
{
  public:
    SpanScope(std::vector<Span>* buffer, const char* name,
              std::uint32_t parent, std::uint32_t run)
        : buf(buffer)
    {
        if (!buf)
            return;
        index = buf->size();
        buf->push_back({name, 0, 0,
                        gNextSpanId.fetch_add(1, std::memory_order_relaxed),
                        parent, run, threadTag()});
        (*buf)[index].begin = nowNs();
    }
    ~SpanScope() { finish(); }

    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

    std::uint32_t id() const { return buf ? (*buf)[index].id : 0; }

    /** Close the span (idempotent); returns its duration in ns. */
    std::uint64_t finish()
    {
        if (!buf)
            return 0;
        auto& span = (*buf)[index];
        if (!closed) {
            span.end = nowNs();
            closed = true;
        }
        return span.end - span.begin;
    }

  private:
    std::vector<Span>* buf;
    std::size_t index = 0;
    bool closed = false;
};

/** All spans of the run; workers append whole chunks under the lock. */
class SpanLog
{
  public:
    void append(const std::vector<Span>& local)
    {
        std::lock_guard<std::mutex> lock(mutex);
        spans.insert(spans.end(), local.begin(), local.end());
    }

    std::vector<Span> take()
    {
        std::lock_guard<std::mutex> lock(mutex);
        return std::move(spans);
    }

  private:
    std::mutex mutex;
    std::vector<Span> spans;
};

/** The layer (module group) a span name belongs to. */
const char*
layerOf(std::string_view name)
{
    if (name == "setup" || name == "dem" || name == "program" ||
        name == "graph")
        return "setup";
    if (name == "sample" || name == "resolve" || name == "replay" ||
        name == "fold")
        return "stab";
    if (name == "decode")
        return "qec";
    if (name == "batch" || name == "next" || name == "push")
        return "stream";
    return "exec"; // run, chunk
}

/**
 * FrameSimulator::sampleDetectors split into its two-pass block calls
 * (resolveNoiseTape, replayBlock, foldAnnotationsBlock), each under its
 * own span.  Returns the applied error-lane count (frame flips).
 */
std::uint64_t
sampleStages(const stab::FrameProgram& prog, std::size_t shots, Rng& rng,
             stab::DetectorSamples& out, std::vector<Span>* buf,
             std::uint32_t parent, std::uint32_t run)
{
    out.resize(shots, prog.numDetectors(), prog.numObservables());
    const std::size_t block =
        std::min(stab::frameBlockWords(), stab::kMaxFrameBlockWords);
    stab::FrameBlockScratch scratch;
    std::uint64_t flips = 0;
    for (std::size_t w0 = 0; w0 < out.numWords; w0 += block) {
        const std::size_t words = std::min(block, out.numWords - w0);
        {
            SpanScope span(buf, "resolve", parent, run);
            flips += prog.resolveNoiseTape(scratch, words, rng);
        }
        {
            SpanScope span(buf, "replay", parent, run);
            prog.replayBlock(scratch);
        }
        const std::size_t last_lanes =
            std::min<std::size_t>(64, shots - (w0 + words - 1) * 64);
        const std::uint64_t mask = last_lanes == 64
                                       ? ~std::uint64_t{0}
                                       : (std::uint64_t{1} << last_lanes) - 1;
        SpanScope span(buf, "fold", parent, run);
        prog.foldAnnotationsBlock(scratch, mask, out.detWords.data() + w0,
                                  out.numWords, out.obsWords.data() + w0,
                                  out.numWords);
    }
    return flips;
}

// --- setup ----------------------------------------------------------

struct SetupSplit
{
    std::vector<double> demNs, programNs, graphNs, totalNs;
    std::size_t mechanisms = 0;
    std::size_t edges = 0;
};

/**
 * The pieces DecoderSetup::build assembles, called one by one.  The
 * graph orientation (which class carries the observable) is read from
 * the cached setup, so the graphs built here must match it exactly.
 */
void
traceSetup(const stab::Circuit& circuit, const qec::DecoderSetup& cached,
           std::uint32_t run, std::vector<Span>& buf, SetupSplit& split,
           Checks& checks)
{
    SpanScope setup(&buf, "setup", 0, run);
    stab::DetectorErrorModel dem;
    std::shared_ptr<const stab::FrameProgram> program;
    qec::DecodingGraph graph_z, graph_x;
    {
        SpanScope span(&buf, "dem", setup.id(), run);
        dem = stab::buildDetectorErrorModel(circuit);
        split.demNs.push_back(static_cast<double>(span.finish()));
    }
    {
        SpanScope span(&buf, "program", setup.id(), run);
        program = stab::FrameProgram::compile(circuit);
        split.programNs.push_back(static_cast<double>(span.finish()));
    }
    {
        SpanScope span(&buf, "graph", setup.id(), run);
        const auto& tags = circuit.detectorTags();
        graph_z = qec::DecodingGraph::fromDem(dem, tags, qec::kTagZ,
                                              cached.zCarriesObservable);
        graph_x = qec::DecodingGraph::fromDem(dem, tags, qec::kTagX,
                                              !cached.zCarriesObservable);
        split.graphNs.push_back(static_cast<double>(span.finish()));
    }
    split.totalNs.push_back(static_cast<double>(setup.finish()));
    split.mechanisms = dem.mechanisms.size();
    split.edges = graph_z.edges().size() + graph_x.edges().size();
    checks.expect(dem.mechanisms.size() == cached.dem.mechanisms.size() &&
                      graph_z.edges().size() ==
                          cached.graphZ.edges().size() &&
                      graph_x.edges().size() ==
                          cached.graphX.edges().size() &&
                      program->tapeWords() ==
                          cached.program->tapeWords(),
                  "traced setup pieces match DecoderCache's setup");
}

// --- batch path -----------------------------------------------------

/** Per-chunk counts of a traced batch call. */
struct ChunkTally
{
    std::size_t failures = 0;
    std::uint64_t flips = 0;
    std::uint64_t defects = 0;
    std::uint64_t trivial = 0;
    std::uint64_t batchShots = 0;
    std::uint64_t dedupHits = 0;
    std::uint64_t ns = 0;
};

/** Accumulated over every traced batch call of the run. */
struct BatchTally
{
    std::uint64_t shots = 0;
    std::uint64_t failures = 0;
    std::uint64_t flips = 0;
    std::uint64_t noiseWords = 0;
    std::uint64_t defects = 0;
    std::uint64_t trivial = 0;
    std::uint64_t batchShots = 0;
    std::uint64_t dedupHits = 0;
    std::uint64_t chunks = 0;
    std::uint64_t calls = 0;
    double chunkNs = 0.0;
    double workerWallNs = 0.0; ///< call wall time x workers
    std::vector<double> traced, untraced; ///< shots/s per call
};

/** runMemoryExperiment's chunk loop, traced. */
ChunkTally
tracedBatchCall(const qec::DecoderSetup& setup, std::uint64_t seed,
                std::size_t shots, unsigned workers, std::uint32_t run,
                SpanLog& log, double& seconds)
{
    exec::setThreadCount(workers);
    std::vector<Span> top;
    SpanScope run_span(&top, "run", 0, run);
    const std::uint32_t run_id = run_span.id();
    Rng rng(seed);
    const std::uint64_t base = rng();
    const exec::ShotScheduler sched(shots);
    std::vector<ChunkTally> chunks(sched.numChunks());
    exec::parallelFor(sched.numChunks(), [&](std::size_t i) {
        std::vector<Span> local;
        local.reserve(16);
        {
            SpanScope chunk_span(&local, "chunk", run_id, run);
            const auto chunk = sched.chunk(i);
            Rng chunk_rng = exec::ShotScheduler::chunkRng(base, chunk.index);
            ChunkTally& t = chunks[i];
            stab::DetectorSamples samples;
            {
                SpanScope sample(&local, "sample", chunk_span.id(), run);
                t.flips = sampleStages(*setup.program, chunk.count,
                                       chunk_rng, samples, &local,
                                       sample.id(), run);
            }
            SpanScope decode(&local, "decode", chunk_span.id(), run);
            qec::SlidingWindowDecoder kernel(setup, kUnionFind);
            t.failures = kernel.decodeBuffer(samples);
            decode.finish();
            const auto& st = kernel.stats();
            t.defects = st.syndromeWeights.sum();
            t.trivial = st.trivialShots;
            t.batchShots = st.batchShots;
            t.dedupHits = st.dedupHits;
            t.ns = chunk_span.finish();
        }
        log.append(local);
    });
    seconds = static_cast<double>(run_span.finish()) * 1e-9;
    log.append(top);

    ChunkTally sum;
    for (const auto& t : chunks) {
        sum.failures += t.failures;
        sum.flips += t.flips;
        sum.defects += t.defects;
        sum.trivial += t.trivial;
        sum.batchShots += t.batchShots;
        sum.dedupHits += t.dedupHits;
        sum.ns += t.ns;
    }
    return sum;
}

/**
 * Outside every timed span: the samples assembled from the three block
 * calls must be bit-identical to FrameSimulator::sampleDetectors on the
 * same chunk generator, and leave the generator in the same state.
 */
void
checkDecomposition(const qec::DecoderSetup& setup, std::uint64_t seed,
                   std::size_t shots, Checks& checks)
{
    Rng rng(seed);
    const std::uint64_t base = rng();
    const exec::ShotScheduler sched(shots);
    std::vector<char> same(sched.numChunks(), 0);
    exec::parallelFor(sched.numChunks(), [&](std::size_t i) {
        const auto chunk = sched.chunk(i);
        Rng mine_rng = exec::ShotScheduler::chunkRng(base, chunk.index);
        Rng ref_rng = mine_rng;
        stab::DetectorSamples mine;
        sampleStages(*setup.program, chunk.count, mine_rng, mine, nullptr,
                     0, 0);
        const auto ref = stab::FrameSimulator(setup.program)
                             .sampleDetectors(chunk.count, ref_rng);
        same[i] = mine.detWords == ref.detWords &&
                  mine.obsWords == ref.obsWords && mine_rng() == ref_rng();
    });
    checks.expect(std::all_of(same.begin(), same.end(),
                              [](char s) { return s != 0; }),
                  "resolve/replay/fold samples == sampleDetectors");
}

// --- stream path ----------------------------------------------------

/** Accumulated over every traced stream call of the run. */
struct StreamTally
{
    std::uint64_t shots = 0;
    std::uint64_t failures = 0;
    std::uint64_t defects = 0;
    std::uint64_t laneDecodes = 0;
    std::uint64_t committedRounds = 0;
    std::uint64_t decodedRounds = 0; ///< window rounds decoded
    std::size_t peakRounds = 0;      ///< most rounds held at a decode
    std::vector<double> windowNs; ///< push calls that ran a decode
    std::vector<double> traced, untraced;
};

/**
 * runStreamingMemoryExperiment's inline shape, traced: one
 * DetectorStream per chunk feeding one SlidingWindowDecoder.  Returns
 * the call's result in the library's StreamingResult form.
 */
qec::StreamingResult
tracedStreamCall(const qec::DecoderSetup& setup,
                 const qec::StreamConfig& config, std::uint64_t seed,
                 std::size_t shots, std::size_t experiment_rounds,
                 std::uint32_t run, SpanLog& log,
                 StreamTally& tally, double& seconds, bool& in_order)
{
    qec::SlidingWindowDecoder kernel(
        setup, kUnionFind, {config.windowRounds, config.commitRounds});
    const std::size_t rounds = kernel.numRounds();
    std::vector<Span> buf;
    buf.reserve(shots);
    SpanScope run_span(&buf, "run", 0, run);
    Rng rng(seed);
    const std::uint64_t base = rng();
    const exec::ShotScheduler sched(shots, config.chunkShots);
    std::size_t failures = 0;
    stab::SyndromeBlock block;
    for (std::size_t i = 0; i < sched.numChunks(); ++i) {
        const auto chunk = sched.chunk(i);
        Rng chunk_rng = exec::ShotScheduler::chunkRng(base, chunk.index);
        stab::DetectorStream stream(setup.program, chunk.count);
        for (std::size_t b = 0; b < stream.numBatches(); ++b) {
            SpanScope batch(&buf, "batch", run_span.id(), run);
            std::size_t window_base = 0;
            for (std::size_t s = 0; s < stream.numSlices(); ++s) {
                bool produced = false;
                {
                    SpanScope next(&buf, "next", batch.id(), run);
                    produced = stream.next(chunk_rng, block);
                }
                in_order = in_order && produced && block.slice == s;
                if (!produced)
                    break;
                const std::uint64_t windows0 = kernel.stats().windows;
                SpanScope push(&buf, "push", batch.id(), run);
                if (s == 0)
                    kernel.beginBatch(block.lanes);
                kernel.pushBlock(block);
                if (block.lastSliceOfBatch)
                    failures += kernel.finishBatch();
                const auto ns = static_cast<double>(push.finish());
                if (kernel.stats().windows != windows0) {
                    // Rounds held at this decode: pushed since the last
                    // commit boundary, counted here rather than read
                    // back from the decoder's configured bound.
                    const std::size_t held = s + 1 - window_base;
                    tally.windowNs.push_back(ns);
                    tally.decodedRounds += held;
                    tally.peakRounds = std::max(tally.peakRounds, held);
                    if (s + 1 < rounds)
                        window_base += kernel.effectiveCommit();
                }
            }
        }
        // The exhausting call flushes the sampler telemetry.
        in_order = in_order && !stream.next(chunk_rng, block);
    }
    seconds = static_cast<double>(run_span.finish()) * 1e-9;
    log.append(buf);

    const auto& st = kernel.stats();
    qec::StreamingResult r;
    r.memory.shots = shots;
    r.memory.rounds = experiment_rounds;
    r.memory.failures = failures;
    r.windowRounds = kernel.effectiveWindow();
    r.commitRounds = kernel.effectiveCommit();
    r.peakStoredRounds = kernel.peakStoredRounds();
    r.blocks = st.blocks;
    r.windows = st.windows;
    r.laneDecodes = st.laneDecodes;
    r.committedRounds = st.committedRounds;
    r.carryDefects = st.carryDefects;
    r.trivialShots = st.trivialShots;

    tally.shots += shots;
    tally.failures += failures;
    tally.defects += st.syndromeWeights.sum();
    tally.laneDecodes += st.laneDecodes;
    tally.committedRounds += st.committedRounds;
    return r;
}

// --- reporting ------------------------------------------------------

/** Total and self time per span name (self = minus children's union). */
struct NameTime
{
    std::uint64_t count = 0;
    double totalNs = 0.0;
    double selfNs = 0.0;
};

std::map<std::string, NameTime>
timeByName(const std::vector<Span>& spans)
{
    std::unordered_map<std::uint32_t, std::size_t> index;
    for (std::size_t i = 0; i < spans.size(); ++i)
        index[spans[i].id] = i;
    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>>
        children(spans.size());
    for (const auto& s : spans) {
        const auto it = index.find(s.parent);
        if (s.parent && it != index.end())
            children[it->second].emplace_back(s.begin, s.end);
    }
    std::map<std::string, NameTime> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto& s = spans[i];
        auto& kids = children[i];
        std::sort(kids.begin(), kids.end());
        // Union of the children's intervals, clipped to the span:
        // parallel chunks under one run overlap each other.
        std::uint64_t covered = 0, cursor = s.begin;
        for (const auto& [b, e] : kids) {
            const std::uint64_t lo = std::max(b, cursor);
            const std::uint64_t hi = std::min(e, s.end);
            if (hi > lo) {
                covered += hi - lo;
                cursor = hi;
            }
        }
        auto& t = out[s.name];
        ++t.count;
        t.totalNs += static_cast<double>(s.end - s.begin);
        t.selfNs += static_cast<double>(s.end - s.begin - covered);
    }
    return out;
}

bool
writeChromeTrace(const std::string& path, const std::vector<Span>& spans)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << std::fixed << std::setprecision(3);
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto& s = spans[i];
        out << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
            << "\", \"cat\": \"" << layerOf(s.name)
            << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread
            << ", \"ts\": " << static_cast<double>(s.begin) * 1e-3
            << ", \"dur\": " << static_cast<double>(s.end - s.begin) * 1e-3
            << ", \"args\": {\"id\": " << s.id << ", \"parent\": "
            << s.parent << ", \"run\": " << s.run << "}}";
    }
    out << "\n]}\n";
    out.close();
    return static_cast<bool>(out);
}

void
printSelfTimes(const Workload& w, const std::map<std::string, NameTime>& t)
{
    double self_total = 0.0;
    for (const auto& [name, nt] : t)
        self_total += nt.selfNs;
    std::cout << "\nself time per span (" << w.name << ", traced run)\n";
    std::cout << "  layer   span        count     total ms      self ms  "
                 "self share\n";
    for (const auto* layer : {"setup", "exec", "stab", "qec", "stream"}) {
        for (const auto& [name, nt] : t) {
            if (std::string_view(layerOf(name)) != layer)
                continue;
            std::cout << "  " << std::left << std::setw(8) << layer
                      << std::setw(10) << name << std::right
                      << std::setw(7) << nt.count << std::fixed
                      << std::setprecision(2) << std::setw(13)
                      << nt.totalNs * 1e-6 << std::setw(13)
                      << nt.selfNs * 1e-6 << std::setw(11)
                      << std::setprecision(1)
                      << 100.0 * nt.selfNs / self_total << "%\n";
            std::cout.unsetf(std::ios::fixed);
        }
    }
}

/**
 * Every per-layer metric is reported on every workload, so each traced
 * run also times the path its workload does not take end to end: a
 * memory workload makes kMinCalls windowed stream calls, a stream
 * workload kMinCalls batch calls, at a quarter of its shots per call.
 * These probes report the other layers' figures and should stay flat
 * when only the workload's own path changes.
 */
constexpr std::size_t kProbeShotDivisor = 4;
/** A memory workload's stream probe uses stream_d7_r28's window. */
const qec::StreamConfig kProbeStream{7, 3};

constexpr int kSetupRepeats = 7;
/** Fewest calls per phase; a probe makes exactly this many. */
constexpr std::size_t kMinCalls = 2;

} // namespace

void
runTraced(const Workload& w, const stab::Circuit& circuit,
          const std::string& trace_out, Checks& checks, Metrics& metrics)
{
    const Stopwatch run;
    SpanLog log;
    std::uint32_t run_id = 0;

    // Setup: the cached setup fixes the graph orientation and serves
    // every call below; the traced repeats time its pieces.
    qec::DecoderCache::instance().clear();
    const auto setup = qec::DecoderCache::instance().get(circuit, kUnionFind);
    SetupSplit split;
    {
        std::vector<Span> buf;
        for (int k = 0; k < kSetupRepeats; ++k)
            traceSetup(circuit, *setup, ++run_id, buf, split, checks);
        log.append(buf);
    }

    const bool is_stream = w.kind == Kind::Stream;
    const std::size_t probe_shots =
        std::max<std::size_t>(w.shots / kProbeShotDivisor, 64);

    // Batch path: untraced library call and traced decomposition on the
    // same seed, order alternating per call, until @p until seconds
    // into the run (at least kMinCalls calls).
    Workload batch_w = w;
    batch_w.kind = Kind::Memory;
    BatchTally bt;
    const auto batch_phase = [&](std::size_t shots, double until) {
        double last = 0.0;
        for (std::size_t i = 0;
             i < kMinCalls || run.seconds() + last <= until; ++i) {
            const Stopwatch pair;
            const std::uint64_t seed = callSeed(w.seed, i);
            CallResult plain;
            double traced_s = 0.0;
            const std::uint32_t id = ++run_id;
            if (i % 2 == 0)
                plain = runCall(batch_w, circuit, seed, w.workers, shots);
            const ChunkTally traced = tracedBatchCall(
                *setup, seed, shots, w.workers, id, log, traced_s);
            if (i % 2 == 1)
                plain = runCall(batch_w, circuit, seed, w.workers, shots);
            last = pair.seconds();

            std::ostringstream what;
            what << "batch call " << i << ": traced failures ("
                 << traced.failures << ") and frame flips (" << traced.flips
                 << ") == untraced (" << plain.failures << ", "
                 << plain.flips << ")";
            checks.expect(traced.failures == plain.failures &&
                              traced.flips == plain.flips,
                          what.str());
            const std::uint64_t noise_words =
                setup->program->tapeWords() * ((shots + 63) / 64);
            checks.expect(plain.noiseWords == noise_words,
                          "noise_words counter == tape slots x batches");
            if (i == 0)
                checkDecomposition(*setup, seed, shots, checks);

            bt.shots += shots;
            bt.failures += traced.failures;
            bt.flips += plain.flips;
            bt.noiseWords += plain.noiseWords;
            bt.defects += traced.defects;
            bt.trivial += traced.trivial;
            bt.batchShots += traced.batchShots;
            bt.dedupHits += traced.dedupHits;
            bt.chunks += exec::ShotScheduler(shots).numChunks();
            ++bt.calls;
            bt.chunkNs += static_cast<double>(traced.ns);
            bt.workerWallNs += traced_s * 1e9 * w.workers;
            bt.traced.push_back(static_cast<double>(shots) / traced_s);
            bt.untraced.push_back(static_cast<double>(shots) / plain.seconds);
        }
    };

    // Stream path, windowed, on one worker: the inline shape the traced
    // stream mirrors.
    Workload stream_w = w;
    stream_w.kind = Kind::Stream;
    if (!is_stream)
        stream_w.stream = kProbeStream;
    StreamTally st;
    const auto stream_phase = [&](std::size_t shots, double until) {
        double last = 0.0;
        for (std::size_t j = 0;
             j < kMinCalls || run.seconds() + last <= until; ++j) {
            const Stopwatch pair;
            const std::uint64_t seed = callSeed(w.seed, j);
            double traced_s = 0.0;
            bool in_order = true;
            CallResult plain;
            if (j % 2 == 0)
                plain = runCall(stream_w, circuit, seed, 1, shots);
            const auto traced =
                tracedStreamCall(*setup, stream_w.stream, seed, shots,
                                 w.rounds, ++run_id, log, st, traced_s,
                                 in_order);
            if (j % 2 == 1)
                plain = runCall(stream_w, circuit, seed, 1, shots);
            last = pair.seconds();

            std::ostringstream what;
            what << "stream call " << j << ": traced result (failures "
                 << traced.memory.failures << ") == untraced (failures "
                 << plain.failures << ")";
            checks.expect(in_order && traced == plain.stream, what.str());
            st.traced.push_back(static_cast<double>(shots) / traced_s);
            st.untraced.push_back(static_cast<double>(shots) / plain.seconds);
        }
        std::ostringstream what;
        what << "most rounds held at a window decode (" << st.peakRounds
             << ") == window (" << stream_w.stream.windowRounds << ")";
        checks.expect(st.peakRounds == stream_w.stream.windowRounds,
                      what.str());
    };

    // The probe first; the workload's own path takes the rest of the
    // run and carries the statistical output checks.
    if (is_stream) {
        batch_phase(probe_shots, 0.0);
        stream_phase(w.shots, w.seconds);
        checkStatistics(w, setup->dem, st.shots, st.failures, st.defects,
                        checks);
    } else {
        stream_phase(probe_shots, 0.0);
        batch_phase(w.shots, w.seconds);
        checkStatistics(w, setup->dem, bt.shots, bt.failures, bt.defects,
                        checks);
    }

    const auto spans = log.take();
    const auto times = timeByName(spans);
    checks.expect(writeChromeTrace(trace_out, spans),
                  "trace-event file written to " + trace_out);
    std::cerr << "shotbench " << w.name << ": " << spans.size()
              << " spans -> " << trace_out << "\n";

    const auto total = [&](const char* name) {
        const auto it = times.find(name);
        return it == times.end() ? 0.0 : it->second.totalNs;
    };
    const double bshots = static_cast<double>(bt.shots);
    const double sshots = static_cast<double>(st.shots);
    const double us_per_bshot = 1e-3 / bshots;
    const double us_per_sshot = 1e-3 / sshots;

    // ROADMAP's north-star row: setup plus per-stage thread time per
    // shot of the batch path at the workload's worker count.
    std::cout << std::fixed << std::setprecision(2)
              << "\nper-stage split (" << w.name << ", "
              << (is_stream ? "batch probe, " : "") << w.workers
              << " workers, thread time per shot)\n"
              << "| workload | setup ms | resolve us/shot | replay us/shot "
                 "| sample total us/shot | decode us/shot |\n"
              << "| " << w.name << " | " << median(split.totalNs) * 1e-6
              << " | " << total("resolve") * us_per_bshot << " | "
              << total("replay") * us_per_bshot << " | "
              << total("sample") * us_per_bshot << " | "
              << total("decode") * us_per_bshot << " |\n";
    std::cout.unsetf(std::ios::fixed);
    printSelfTimes(w, times);

    metrics.add("setup.dem_ms", median(split.demNs) * 1e-6, "ms");
    metrics.add("setup.program_ms", median(split.programNs) * 1e-6, "ms");
    metrics.add("setup.graph_ms", median(split.graphNs) * 1e-6, "ms");
    metrics.add("setup.dem_mechanisms",
                static_cast<double>(split.mechanisms), "count");
    metrics.add("setup.graph_edges", static_cast<double>(split.edges),
                "count");

    metrics.add("stab.resolve_us_per_shot", total("resolve") * us_per_bshot,
                "us");
    metrics.add("stab.replay_us_per_shot", total("replay") * us_per_bshot,
                "us");
    metrics.add("stab.fold_us_per_shot", total("fold") * us_per_bshot, "us");
    metrics.add("stab.sample_us_per_shot", total("sample") * us_per_bshot,
                "us");
    metrics.add("stab.flips_per_shot",
                static_cast<double>(bt.flips) / bshots, "count");
    metrics.add("stab.noise_words_per_shot",
                static_cast<double>(bt.noiseWords) / bshots, "count");
    metrics.add("stab.flips_per_noise_word",
                static_cast<double>(bt.flips) /
                    static_cast<double>(bt.noiseWords),
                "ratio");

    metrics.add("qec.decode_us_per_shot", total("decode") * us_per_bshot,
                "us");
    metrics.add("qec.decode_ns_per_defect",
                total("decode") / static_cast<double>(bt.defects), "ns");
    metrics.add("qec.defects_per_shot",
                static_cast<double>(bt.defects) / bshots, "count");
    metrics.add("qec.trivial_share",
                static_cast<double>(bt.trivial) / bshots, "ratio");
    metrics.add("qec.dedup_share",
                static_cast<double>(bt.dedupHits) /
                    static_cast<double>(bt.batchShots),
                "ratio");

    metrics.add("stream.next_us_per_shot", total("next") * us_per_sshot,
                "us");
    metrics.add("stream.push_us_per_shot", total("push") * us_per_sshot,
                "us");
    metrics.add("stream.window_p50_us", quantile(st.windowNs, 0.5) * 1e-3,
                "us");
    metrics.add("stream.window_p99_us", quantile(st.windowNs, 0.99) * 1e-3,
                "us");
    metrics.add("stream.window_samples",
                static_cast<double>(st.windowNs.size()), "count");
    metrics.add("stream.lane_decodes_per_shot",
                static_cast<double>(st.laneDecodes) / sshots, "count");
    metrics.add("stream.redecode_ratio",
                static_cast<double>(st.decodedRounds) /
                    static_cast<double>(st.committedRounds),
                "ratio");
    metrics.add("stream.peak_rounds", static_cast<double>(st.peakRounds),
                "count");

    metrics.add("exec.parallel_eff", bt.chunkNs / bt.workerWallNs, "ratio");
    metrics.add("exec.chunks",
                static_cast<double>(bt.chunks) /
                    static_cast<double>(bt.calls),
                "count");

    metrics.add("trace.batch_overhead",
                1.0 - median(bt.traced) / median(bt.untraced), "ratio");
    metrics.add("trace.stream_overhead",
                1.0 - median(st.traced) / median(st.untraced), "ratio");
}

} // namespace shotbench
