/**
 * @file
 * Decoder ablation: weighted union-find vs greedy DEM decoding on the
 * d = 3 surface code, where both apply (logical error rates and
 * throughput), plus the production whole-buffer decode timed on a
 * pre-sampled Fig. 6 d = 7 buffer.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <iostream>

#include "core/table.hh"
#include "core/units.hh"
#include "qec/memory_experiment.hh"
#include "qec/sliding_window.hh"
#include "qec/surface_circuit.hh"
#include "stab/frame.hh"

#include "bench_util.hh"

namespace {

using namespace hetarch;
using namespace hetarch::units;

qec::CircuitNoise
noiseModel(double p2)
{
    qec::CircuitNoise noise;
    noise.p2 = p2;
    noise.p1 = p2 / 10.0;
    noise.dataT1 = noise.dataT2 = 0.5 * ms;
    noise.ancT1 = noise.ancT2 = 0.5 * ms;
    return noise;
}

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

void
BM_DecodeShot(benchmark::State& state)
{
    const bool use_uf = state.range(0) == 0;
    const auto circ = qec::surfaceMemoryZ(3, 3, noiseModel(5e-3));
    Rng rng(3);
    for (auto _ : state) {
        auto res = qec::runMemoryExperiment(
            circ, 256, 3,
            use_uf ? qec::DecoderKind::UnionFind
                   : qec::DecoderKind::GreedyDem,
            rng);
        benchmark::DoNotOptimize(res);
    }
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_DecodeShot)->Arg(0)->Arg(1);

void
BM_DecodeBufferSparse(benchmark::State& state)
{
    // Production kernel on a pre-sampled fig. 6 d=7 buffer: one
    // detector-major fired-detector pass, the trivial-shot bypass, then
    // every shot decoded graph by graph.
    const auto circ = qec::surfaceMemoryZ(7, 7, fig6Noise());
    const auto setup =
        qec::DecoderSetup::build(circ, qec::DecoderKind::UnionFind);
    const stab::FrameSimulator sim(circ);
    Rng rng(5);
    const auto samples = sim.sampleDetectors(256, rng);
    qec::SlidingWindowDecoder kernel(*setup, qec::DecoderKind::UnionFind);
    for (auto _ : state) {
        auto failures = kernel.decodeBuffer(samples);
        benchmark::DoNotOptimize(failures);
    }
    state.SetItemsProcessed(state.iterations() * samples.shots);
}
BENCHMARK(BM_DecodeBufferSparse);

} // namespace

int
main(int argc, char** argv)
{
    hetarch::bench::configure(argc, argv);
    hetarch::bench::printRunHeader();
    const double shot_scale = hetarch::bench::runScale().shotScale;

    std::cout << "\n=== Ablation: union-find vs greedy DEM decoder "
                 "(surface d=3) ===\n";
    TextTable t({"p2", "p_L(union-find)", "p_L(greedy-dem)"});
    const auto shots_pl =
        static_cast<std::size_t>(20000 * shot_scale);
    for (double p2 : {2e-3, 5e-3, 1e-2}) {
        const auto circ = qec::surfaceMemoryZ(3, 3, noiseModel(p2));
        Rng rng_a(11), rng_b(11);
        const auto uf = qec::runMemoryExperiment(
            circ, shots_pl, 3, qec::DecoderKind::UnionFind, rng_a);
        const auto gd = qec::runMemoryExperiment(
            circ, shots_pl, 3, qec::DecoderKind::GreedyDem, rng_b);
        t.addRow({formatSci(p2, 2), formatSci(uf.perRound(), 3),
                  formatSci(gd.perRound(), 3)});
    }
    t.print(std::cout);
    std::cout.flush();

    hetarch::bench::exportMetrics();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
