/**
 * @file
 * Golden determinism tests for the exec engine: every Monte-Carlo
 * entry point must produce bit-identical output for any worker count.
 * Each test runs the same seeded experiment at 1, 2, and 8 workers and
 * compares results exactly (integer counts and raw doubles — no
 * tolerances).
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "core/rng.hh"
#include "distill/module_sim.hh"
#include "exec/thread_pool.hh"
#include "qec/memory_experiment.hh"
#include "qec/surface_circuit.hh"
#include "uec/experiment.hh"

namespace hetarch {
namespace {

const unsigned kWorkerCounts[] = {1, 2, 8};

/** Restores the default worker count when a test exits. */
struct ThreadCountGuard
{
    explicit ThreadCountGuard(unsigned n) { exec::setThreadCount(n); }
    ~ThreadCountGuard() { exec::setThreadCount(0); }
};

TEST(Determinism, MemoryExperimentIsThreadCountInvariant)
{
    qec::CircuitNoise noise;
    noise.p2 = 3e-3;
    const auto circuit = qec::surfaceMemoryZ(3, 3, noise);

    for (auto kind :
         {qec::DecoderKind::UnionFind, qec::DecoderKind::GreedyDem}) {
        std::vector<qec::MemoryResult> results;
        for (unsigned workers : kWorkerCounts) {
            ThreadCountGuard guard(workers);
            Rng rng(1234);
            results.push_back(
                qec::runMemoryExperiment(circuit, 2000, 3, kind, rng));
        }
        for (std::size_t i = 1; i < results.size(); ++i) {
            EXPECT_EQ(results[i].failures, results[0].failures)
                << "workers " << kWorkerCounts[i];
            EXPECT_EQ(results[i].shots, results[0].shots);
        }
        // The seeded experiment is not degenerate.
        EXPECT_GT(results[0].failures, 0u);
        EXPECT_LT(results[0].failures, results[0].shots);
    }
}

TEST(Determinism, SurfacePerRoundIsThreadCountInvariant)
{
    qec::CircuitNoise noise;
    noise.p2 = 2e-3;
    std::vector<double> values;
    for (unsigned workers : kWorkerCounts) {
        ThreadCountGuard guard(workers);
        values.push_back(
            qec::surfaceLogicalErrorPerRound(3, 3, noise, 1500, 77));
    }
    EXPECT_EQ(values[1], values[0]);
    EXPECT_EQ(values[2], values[0]);
}

TEST(Determinism, DistillEnsembleIsThreadCountInvariant)
{
    distill::DistillConfig config;
    config.seed = 7;
    const double horizon = 2.0 * units::ms;

    std::vector<distill::DistillEnsemble> runs;
    for (unsigned workers : kWorkerCounts) {
        ThreadCountGuard guard(workers);
        runs.push_back(
            distill::simulateDistillationEnsemble(config, horizon, 4));
    }
    for (std::size_t i = 1; i < runs.size(); ++i) {
        ASSERT_EQ(runs[i].runs.size(), runs[0].runs.size());
        for (std::size_t t = 0; t < runs[0].runs.size(); ++t) {
            const auto& a = runs[0].runs[t];
            const auto& b = runs[i].runs[t];
            EXPECT_EQ(b.rawGenerated, a.rawGenerated) << "traj " << t;
            EXPECT_EQ(b.distilled, a.distilled) << "traj " << t;
            EXPECT_EQ(b.attempts, a.attempts) << "traj " << t;
            EXPECT_EQ(b.failures, a.failures) << "traj " << t;
        }
        EXPECT_EQ(runs[i].meanDistilledRatePerMs(),
                  runs[0].meanDistilledRatePerMs());
    }
}

TEST(Determinism, EnsembleTrajectoryZeroMatchesSingleRun)
{
    distill::DistillConfig config;
    config.seed = 21;
    const double horizon = 1.5 * units::ms;

    const auto single = distill::simulateDistillation(config, horizon);
    const auto ensemble =
        distill::simulateDistillationEnsemble(config, horizon, 3);
    ASSERT_EQ(ensemble.runs.size(), 3u);
    EXPECT_EQ(ensemble.runs[0].rawGenerated, single.rawGenerated);
    EXPECT_EQ(ensemble.runs[0].distilled, single.distilled);
    EXPECT_EQ(ensemble.runs[0].attempts, single.attempts);
    EXPECT_EQ(ensemble.runs[0].failures, single.failures);
    // Other trajectories explore genuinely different streams.
    EXPECT_NE(ensemble.runs[1].rawGenerated,
              ensemble.runs[0].rawGenerated);
}

TEST(Determinism, UecExperimentIsThreadCountInvariant)
{
    const auto code = qec::makeSteane();
    std::vector<double> het, hom;
    for (unsigned workers : kWorkerCounts) {
        ThreadCountGuard guard(workers);
        het.push_back(uec::uecLogicalErrorPerRound(
            code, 10.0 * units::ms, 2, 600, 11));
        hom.push_back(
            uec::homogeneousLogicalErrorPerRound(code, 2, 600, 11));
    }
    EXPECT_EQ(het[1], het[0]);
    EXPECT_EQ(het[2], het[0]);
    EXPECT_EQ(hom[1], hom[0]);
    EXPECT_EQ(hom[2], hom[0]);
}

TEST(Determinism, NestedMemoryExperimentsMatchSequentialAtEveryThreadCount)
{
    // A paper runner's shape: a grid of memory experiments evaluated
    // with parallelFor into per-point slots, each experiment running
    // its own (nested, hence inline) parallelFor over shot chunks.
    struct Point
    {
        std::size_t d;
        double p;
    };
    const std::vector<Point> grid = {
        {3, 1e-3}, {3, 3e-3}, {5, 1e-3}, {5, 3e-3}};
    const auto eval = [&](std::size_t i) {
        qec::CircuitNoise noise;
        noise.p2 = grid[i].p;
        return qec::surfaceLogicalErrorPerRound(grid[i].d, 2, noise, 500,
                                                42 + grid[i].d);
    };

    std::vector<double> reference;
    for (std::size_t i = 0; i < grid.size(); ++i)
        reference.push_back(eval(i));
    for (unsigned workers : kWorkerCounts) {
        ThreadCountGuard guard(workers);
        std::vector<double> parallel(grid.size(), -1.0);
        exec::parallelFor(grid.size(),
                          [&](std::size_t i) { parallel[i] = eval(i); });
        for (std::size_t i = 0; i < grid.size(); ++i)
            EXPECT_EQ(parallel[i], reference[i])
                << "point " << i << " at " << workers << " workers";
    }
}

} // namespace
} // namespace hetarch
