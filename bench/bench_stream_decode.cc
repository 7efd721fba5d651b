/**
 * @file
 * Sustained-load benchmark for the streaming syndrome engine
 * (qec/stream_experiment.hh): a d = 7 surface memory at the fig. 6
 * noise point, each shot chunk decoded as its syndrome blocks arrive.
 *
 * The artifact contrasts the two kernel modes at two round counts:
 *
 *  - whole-buffer (window spans the run): bit-identical to
 *    runMemoryExperiment, cross-checked per row;
 *  - sliding window (W = 7, C = 3): each kernel's peak syndrome
 *    storage pinned at W rounds regardless of run length, with
 *    per-window decode latency percentiles (p50/p90/p99) read from
 *    the qec.stream.window_decode_ns histogram via snapshot deltas.
 *
 * Timing instrumentation is enabled so the latency histograms fill;
 * the deterministic counters are unaffected.  The metrics snapshot is
 * exported before the microbenchmarks, like every other bench.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>

#include "core/table.hh"
#include "core/units.hh"
#include "obs/obs.hh"
#include "qec/memory_experiment.hh"
#include "qec/stream_experiment.hh"
#include "qec/surface_circuit.hh"

#include "bench_util.hh"

namespace {

using namespace hetarch;
using namespace hetarch::units;

/** The fig. 6 noise point (p2 = 1e-2, p1 = 1e-3, T1 = T2 = 0.1 ms). */
qec::CircuitNoise
fig6Noise()
{
    qec::CircuitNoise noise;
    noise.p2 = 1e-2;
    noise.p1 = 1e-3;
    noise.dataT1 = noise.dataT2 = 0.1 * ms;
    noise.ancT1 = noise.ancT2 = 0.1 * ms;
    return noise;
}

obs::Snapshot::HistogramEntry
windowLatency()
{
    const auto snap = obs::Registry::instance().snapshot();
    for (const auto& h : snap.histograms)
        if (h.name == "qec.stream.window_decode_ns")
            return h;
    return {};
}

/** Per-run view of a monotonically growing histogram. */
obs::Snapshot::HistogramEntry
histogramDelta(obs::Snapshot::HistogramEntry cur,
               const obs::Snapshot::HistogramEntry& prev)
{
    cur.count -= prev.count;
    cur.sum -= prev.sum;
    for (const auto& [lo, count] : prev.buckets)
        for (auto& bucket : cur.buckets)
            if (bucket.first == lo) {
                bucket.second -= count;
                break;
            }
    std::erase_if(cur.buckets,
                  [](const auto& b) { return b.second == 0; });
    return cur;
}

std::string
quantileUs(const obs::Snapshot::HistogramEntry& h, double q)
{
    if (h.count == 0)
        return "-";
    return formatFixed(obs::histogramQuantile(h, q) / 1e3, 1);
}

void
BM_StreamDecode(benchmark::State& state)
{
    // End-to-end streaming decode of a d = 5 memory; Arg(1) slides a
    // 4-round window with 2-round commits, Arg(0) is whole-buffer.
    const bool windowed = state.range(0) == 1;
    const std::size_t rounds = 10;
    const auto circ = qec::surfaceMemoryZ(5, rounds, fig6Noise());
    qec::StreamConfig config;
    if (windowed) {
        config.windowRounds = 4;
        config.commitRounds = 2;
    }
    Rng rng(9);
    for (auto _ : state) {
        auto res = qec::runStreamingMemoryExperiment(
            circ, 256, rounds, qec::DecoderKind::UnionFind, rng,
            config);
        benchmark::DoNotOptimize(res);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * 256 * rounds));
}
BENCHMARK(BM_StreamDecode)->Arg(0)->Arg(1);

} // namespace

int
main(int argc, char** argv)
{
    hetarch::bench::configure(argc, argv);
    hetarch::bench::printRunHeader();
    obs::setTimingEnabled(true);
    const double shot_scale = hetarch::bench::runScale().shotScale;
    using clock = std::chrono::steady_clock;

    std::cout << "exec threads: " << exec::threadCount() << "\n";
    std::cout << "\n=== Streaming decode under sustained load "
                 "(surface d=7, fig6 noise) ===\n";
    TextTable t({"rounds", "window", "commit", "peak-rounds", "shots",
                 "failures", "batch-equal", "shot-rounds/s", "p50(us)",
                 "p90(us)", "p99(us)"});
    const auto shots = std::max<std::size_t>(
        128, static_cast<std::size_t>(4096 * shot_scale));
    for (std::size_t rounds : {std::size_t{7}, std::size_t{28}}) {
        const auto circ = qec::surfaceMemoryZ(7, rounds, fig6Noise());

        Rng batch_rng(2026);
        const auto batch = qec::runMemoryExperiment(
            circ, shots, rounds, qec::DecoderKind::UnionFind,
            batch_rng);

        for (int windowed = 0; windowed < 2; ++windowed) {
            qec::StreamConfig config;
            if (windowed) {
                config.windowRounds = 7;
                config.commitRounds = 3;
            }
            const auto before = windowLatency();
            Rng rng(2026);
            const auto t0 = clock::now();
            const auto res = qec::runStreamingMemoryExperiment(
                circ, shots, rounds, qec::DecoderKind::UnionFind, rng,
                config);
            const auto t1 = clock::now();
            const auto latency =
                histogramDelta(windowLatency(), before);

            const double secs =
                std::chrono::duration<double>(t1 - t0).count();
            const double rate =
                static_cast<double>(shots * rounds) / secs;
            // Whole-buffer mode must replay the batch experiment
            // bit-for-bit; windowed mode legitimately differs.
            const std::string batch_equal =
                windowed ? "-"
                         : (res.memory.failures == batch.failures
                                ? "yes"
                                : "NO");
            t.addRow({std::to_string(rounds),
                      windowed ? std::to_string(res.windowRounds)
                               : "full",
                      windowed ? std::to_string(res.commitRounds)
                               : "-",
                      std::to_string(res.peakStoredRounds),
                      std::to_string(shots),
                      std::to_string(res.memory.failures), batch_equal,
                      formatSci(rate, 2), quantileUs(latency, 0.5),
                      quantileUs(latency, 0.9),
                      quantileUs(latency, 0.99)});
        }
    }
    t.print(std::cout);
    std::cout.flush();

    hetarch::bench::exportMetrics();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
