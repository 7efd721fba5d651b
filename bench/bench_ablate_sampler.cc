/**
 * @file
 * Sampler ablations.  Three axes:
 *
 *  - batched Pauli-frame sampling vs exact tableau simulation (the
 *    frame sampler is what makes paper-scale experiments affordable);
 *  - where block sampling spends its time: noise resolution (RNG
 *    contract v2's geometric-gap draws) vs frame replay, at Fig. 6 and
 *    sub-threshold noise, with the generator words drawn per shot, the
 *    error events kept per 64-shot word and the block scratch's size;
 *  - word-parallel blocks vs 1-word blocks.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <iostream>

#include "core/table.hh"
#include "core/units.hh"
#include "qec/memory_experiment.hh"
#include "qec/surface_circuit.hh"
#include "stab/frame.hh"
#include "stab/tableau.hh"

#include "bench_util.hh"
#include "support/packed_samples.hh"

namespace {

using namespace hetarch;
using namespace hetarch::units;

/** Bytes held by a block scratch's buffers. */
std::size_t
scratchBytes(const stab::FrameBlockScratch& s)
{
    const std::size_t words = s.frame.capacity() + s.meas.capacity() +
                              s.collapse.capacity() + s.fold.capacity();
    return words * sizeof(std::uint64_t) +
           (s.events.capacity() + s.sorted.capacity()) *
               sizeof(stab::NoiseEvent) +
           s.siteStart.capacity() * sizeof(std::uint32_t);
}

/** Fig. 6 noise; @p scale = 0.1 with 5x coherence is sub-threshold. */
qec::CircuitNoise
noiseModel(double scale = 1.0)
{
    qec::CircuitNoise noise;
    noise.p2 = 1e-2 * scale;
    noise.p1 = 1e-3 * scale;
    const double t = (scale < 1.0 ? 0.5 : 0.1) * ms;
    noise.dataT1 = noise.dataT2 = t;
    noise.ancT1 = noise.ancT2 = t;
    return noise;
}

void
BM_FrameSampler(benchmark::State& state)
{
    const auto d = static_cast<std::size_t>(state.range(0));
    const auto circ = qec::surfaceMemoryZ(d, d, noiseModel());
    stab::FrameSimulator sim(circ);
    Rng rng(3);
    for (auto _ : state) {
        auto s = sim.sampleDetectors(64, rng);
        benchmark::DoNotOptimize(s);
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_FrameSampler)->Arg(3)->Arg(5)->Arg(9)->Arg(13);

void
BM_FrameResolveTape(benchmark::State& state)
{
    // Noise resolution alone (contract v2 geometric gaps) over one
    // 8-word block, at Fig. 6 noise.
    const auto d = static_cast<std::size_t>(state.range(0));
    const auto circ = qec::surfaceMemoryZ(d, d, noiseModel());
    const auto prog = stab::FrameProgram::compile(circ);
    stab::FrameBlockScratch scratch;
    Rng rng(3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(prog->resolveNoiseTape(scratch, 8, rng));
    }
    state.SetItemsProcessed(state.iterations() * 8 * 64);
}
BENCHMARK(BM_FrameResolveTape)->Arg(3)->Arg(5)->Arg(9)->Arg(13);

void
BM_FrameReplayBlock(benchmark::State& state)
{
    // Pure frame propagation (the replay pass) at a given block width;
    // the block's noise events are resolved once outside the loop.
    const auto words = static_cast<std::size_t>(state.range(0));
    const auto circ = qec::surfaceMemoryZ(9, 9, noiseModel());
    const auto prog = stab::FrameProgram::compile(circ);
    stab::FrameBlockScratch scratch;
    Rng rng(3);
    prog->resolveNoiseTape(scratch, words, rng);
    for (auto _ : state) {
        prog->replayBlock(scratch);
        benchmark::DoNotOptimize(scratch.meas.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(words * 64));
}
BENCHMARK(BM_FrameReplayBlock)->Arg(1)->Arg(4)->Arg(8);

void
BM_TableauSampler(benchmark::State& state)
{
    const auto d = static_cast<std::size_t>(state.range(0));
    const auto circ = qec::surfaceMemoryZ(d, d, noiseModel());
    Rng rng(3);
    for (auto _ : state) {
        stab::TableauSimulator sim(circ.numQubits());
        auto record = sim.run(circ, rng);
        benchmark::DoNotOptimize(record);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TableauSampler)->Arg(3)->Arg(5)->Arg(9);

} // namespace

int
main(int argc, char** argv)
{
    hetarch::bench::configure(argc, argv);
    hetarch::bench::printRunHeader();
    using clock = std::chrono::steady_clock;
    std::cout << "\n=== Ablation: frame sampler vs tableau simulator ===\n";

    TextTable t({"distance", "shots", "frame(ms)", "tableau(ms)",
                 "speedup"});
    for (std::size_t d : {3ul, 5ul, 9ul}) {
        const auto circ = qec::surfaceMemoryZ(d, d, noiseModel());
        const std::size_t shots = 512;

        Rng rng_f(1);
        stab::FrameSimulator frame(circ);
        const auto f0 = clock::now();
        auto fs = frame.sampleDetectors(shots, rng_f);
        benchmark::DoNotOptimize(fs);
        const auto f1 = clock::now();

        Rng rng_t(1);
        const auto t0 = clock::now();
        for (std::size_t s = 0; s < shots; ++s) {
            stab::TableauSimulator sim(circ.numQubits());
            auto record = sim.run(circ, rng_t);
            benchmark::DoNotOptimize(record);
        }
        const auto t1 = clock::now();

        const double f_ms =
            std::chrono::duration<double, std::milli>(f1 - f0).count();
        const double t_ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        t.addRow({std::to_string(d), std::to_string(shots),
                  formatFixed(f_ms, 2), formatFixed(t_ms, 2),
                  formatFixed(t_ms / f_ms, 1) + "x"});
    }
    t.print(std::cout);

    std::cout << "\n=== Ablation: noise resolution vs frame replay "
                 "(RNG contract v2) ===\n";
    // Resolution draws one uniform per noise op per 64 shots plus a
    // gap and a Pauli pick per error event, and keeps one event per
    // non-zero flip mask, so its cost and the scratch follow the event
    // count; replay walks the noise-free ops plus the events.
    TextTable p({"distance", "noise", "shots", "resolve(ms)", "replay(ms)",
                 "draws/shot", "flips/shot", "events/word",
                 "scratch(KB)"});
    for (const double scale : {1.0, 0.1}) {
        for (std::size_t d : {3ul, 5ul, 9ul, 13ul}) {
            const auto circ = qec::surfaceMemoryZ(d, d, noiseModel(scale));
            const auto prog = stab::FrameProgram::compile(circ);
            const std::size_t blocks = 4;
            const std::size_t shots = blocks * 8 * 64;
            stab::FrameBlockScratch scratch;
            Rng warm(0);
            prog->resolveNoiseTape(scratch, 8, warm); // page in the scratch
            Rng rng(1);
            std::uint64_t flips = 0;
            std::size_t events = 0;
            double resolve_ms = 0.0, replay_ms = 0.0;
            for (std::size_t b = 0; b < blocks; ++b) {
                const auto r0 = clock::now();
                flips += prog->resolveNoiseTape(scratch, 8, rng);
                const auto r1 = clock::now();
                events += scratch.eventCount;
                prog->replayBlock(scratch);
                const auto r2 = clock::now();
                resolve_ms +=
                    std::chrono::duration<double, std::milli>(r1 - r0)
                        .count();
                replay_ms +=
                    std::chrono::duration<double, std::milli>(r2 - r1)
                        .count();
            }
            const auto per_shot = [&](std::uint64_t n) {
                return formatFixed(static_cast<double>(n) /
                                       static_cast<double>(shots),
                                   1);
            };
            p.addRow({std::to_string(d), scale < 1.0 ? "sub" : "fig6",
                      std::to_string(shots), formatFixed(resolve_ms, 2),
                      formatFixed(replay_ms, 2), per_shot(rng.draws()),
                      per_shot(flips),
                      formatFixed(static_cast<double>(events) /
                                      static_cast<double>(blocks * 8),
                                  1),
                      formatFixed(static_cast<double>(scratchBytes(scratch)) /
                                      1024.0,
                                  1)});
        }
    }
    p.print(std::cout);

    std::cout << "\n=== Ablation: word-parallel blocks (W=8) vs 1-word "
                 "blocks ===\n";
    // Two arms per distance: "sample" is end-to-end sampling (noise
    // resolution, replay and fold) through sampleDetectors at W=8
    // against the same block calls at W=1; "replay" is the
    // frame-propagation pass alone.  Samples are bit-identical at every
    // width by the RNG-order invariant, so the speedup is a pure
    // throughput delta.
    TextTable w({"distance", "arm", "w=8(ms)", "w=1(ms)", "speedup",
                 "bit-identical"});
    for (std::size_t d : {3ul, 5ul, 9ul, 13ul}) {
        const auto circ = qec::surfaceMemoryZ(d, d, noiseModel());
        const std::size_t shots = 2048;
        stab::FrameSimulator frame(circ);

        Rng rng_w(1);
        const auto s0 = clock::now();
        const auto wide = frame.sampleDetectors(shots, rng_w);
        const auto s1 = clock::now();

        Rng rng_n(1);
        const auto n0 = clock::now();
        const auto narrow =
            stab::sampleAtWidth(frame.program(), shots, 1, rng_n);
        const auto n1 = clock::now();

        const bool identical = wide.detWords == narrow.detWords &&
                               wide.obsWords == narrow.obsWords;
        const double w_ms =
            std::chrono::duration<double, std::milli>(s1 - s0).count();
        const double n_ms =
            std::chrono::duration<double, std::milli>(n1 - n0).count();
        w.addRow({std::to_string(d), "sample", formatFixed(w_ms, 2),
                  formatFixed(n_ms, 2),
                  formatFixed(n_ms / w_ms, 1) + "x",
                  identical ? "yes" : "NO"});

        // Propagation-only arm: replay resolved events, W words per
        // walk vs one word per walk, equal shot totals.
        const auto prog = stab::FrameProgram::compile(circ);
        const std::size_t reps = 64;
        stab::FrameBlockScratch blk;
        Rng rng_b(1);
        prog->resolveNoiseTape(blk, 8, rng_b);
        const auto b0 = clock::now();
        for (std::size_t r = 0; r < reps; ++r)
            prog->replayBlock(blk);
        const auto b1 = clock::now();

        stab::FrameBlockScratch one;
        Rng rng_o(1);
        prog->resolveNoiseTape(one, 1, rng_o);
        const auto o0 = clock::now();
        for (std::size_t r = 0; r < reps * 8; ++r)
            prog->replayBlock(one);
        const auto o1 = clock::now();

        const double b_ms =
            std::chrono::duration<double, std::milli>(b1 - b0).count();
        const double o_ms =
            std::chrono::duration<double, std::milli>(o1 - o0).count();
        w.addRow({std::to_string(d), "replay", formatFixed(b_ms, 2),
                  formatFixed(o_ms, 2),
                  formatFixed(o_ms / b_ms, 1) + "x", "-"});
    }
    w.print(std::cout);
    std::cout.flush();

    hetarch::bench::exportMetrics();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
