/**
 * @file
 * Pins the obs determinism contract: every counter is thread-count
 * invariant.  The same seeded workloads run at 1, 2 and 8 workers and
 * the full counter snapshot must compare bit-identical — this is the
 * property the CI bench-regression job relies on when it gates exact
 * counter values against the committed baseline.
 *
 * Timing histograms are exempt by contract; the one value histogram
 * fed from deterministic data (qec.syndrome_weight) is compared
 * exactly, buckets included.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.hh"
#include "core/units.hh"
#include "distill/module_sim.hh"
#include "exec/thread_pool.hh"
#include "obs/obs.hh"
#include "qec/decoder_cache.hh"
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

/** Counter part of a snapshot plus the one pinned value histogram. */
struct CounterState
{
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    obs::Snapshot::HistogramEntry syndromeWeight;
};

/**
 * Run @p workload from a clean registry + decoder cache at @p workers
 * and capture the counter state it produced.
 */
template <typename Fn>
CounterState
runInstrumented(unsigned workers, Fn&& workload)
{
    ThreadCountGuard guard(workers);
    qec::DecoderCache::instance().clear();
    obs::Registry::instance().reset();
    workload();
    const auto snap = obs::Registry::instance().snapshot();

    CounterState state;
    state.counters = snap.counters;
    for (const auto& h : snap.histograms)
        if (h.name == "qec.syndrome_weight")
            state.syndromeWeight = h;
    return state;
}

void
expectSameCounters(const CounterState& got, const CounterState& want,
                   unsigned workers)
{
    ASSERT_EQ(got.counters.size(), want.counters.size())
        << "counter set changed at " << workers << " workers";
    for (std::size_t i = 0; i < want.counters.size(); ++i) {
        EXPECT_EQ(got.counters[i].first, want.counters[i].first)
            << "workers " << workers;
        EXPECT_EQ(got.counters[i].second, want.counters[i].second)
            << got.counters[i].first << " at " << workers << " workers";
    }
    EXPECT_EQ(got.syndromeWeight.count, want.syndromeWeight.count)
        << "syndrome-weight count at " << workers << " workers";
    EXPECT_EQ(got.syndromeWeight.sum, want.syndromeWeight.sum)
        << "syndrome-weight sum at " << workers << " workers";
    EXPECT_EQ(got.syndromeWeight.buckets, want.syndromeWeight.buckets)
        << "syndrome-weight buckets at " << workers << " workers";
}

TEST(MetricsDeterminism, MemoryExperimentCountersAreThreadInvariant)
{
    qec::CircuitNoise noise;
    noise.p2 = 3e-3;
    const auto circuit = qec::surfaceMemoryZ(3, 4, noise);
    const auto workload = [&] {
        for (auto kind : {qec::DecoderKind::UnionFind,
                          qec::DecoderKind::GreedyDem}) {
            Rng rng(1234);
            qec::runMemoryExperiment(circuit, 1500, 4, kind, rng);
        }
    };

    const auto reference = runInstrumented(kWorkerCounts[0], workload);
    EXPECT_FALSE(reference.counters.empty());
    EXPECT_GT(reference.syndromeWeight.count, 0u);
    for (std::size_t w = 1; w < std::size(kWorkerCounts); ++w)
        expectSameCounters(runInstrumented(kWorkerCounts[w], workload),
                           reference, kWorkerCounts[w]);
}

TEST(MetricsDeterminism, DecoderCacheCountersAreThreadInvariant)
{
    // Two distinct circuits decoded repeatedly: exactly 2 misses and
    // 2 * (reps - 1) hits, no matter how shot chunks race on the cache.
    qec::CircuitNoise noise;
    noise.p2 = 2e-3;
    const auto circ_a = qec::surfaceMemoryZ(3, 2, noise);
    const auto circ_b = qec::surfaceMemoryZ(3, 3, noise);
    constexpr std::size_t kReps = 3;
    const auto workload = [&] {
        for (std::size_t rep = 0; rep < kReps; ++rep) {
            Rng rng_a(5 + rep), rng_b(9 + rep);
            qec::runMemoryExperiment(circ_a, 600, 2,
                                     qec::DecoderKind::UnionFind, rng_a);
            qec::runMemoryExperiment(circ_b, 600, 3,
                                     qec::DecoderKind::UnionFind, rng_b);
        }
    };

    std::vector<CounterState> states;
    for (unsigned workers : kWorkerCounts)
        states.push_back(runInstrumented(workers, workload));

    auto counterValue = [](const CounterState& s, const std::string& n) {
        for (const auto& [name, value] : s.counters)
            if (name == n)
                return value;
        return std::uint64_t{0};
    };
    for (const auto& state : states) {
        EXPECT_EQ(counterValue(state, "qec.decoder_cache.misses"), 2u);
        EXPECT_EQ(counterValue(state, "qec.decoder_cache.hits"),
                  2u * (kReps - 1));
    }
    for (std::size_t w = 1; w < states.size(); ++w)
        expectSameCounters(states[w], states[0], kWorkerCounts[w]);
}

TEST(MetricsDeterminism, DistillAndNestedMemoryCountersAreThreadInvariant)
{
    const auto workload = [] {
        distill::DistillConfig config;
        config.seed = 7;
        distill::simulateDistillationEnsemble(config, 1.5 * units::ms,
                                              4);

        // Two memory experiments nested in one parallelFor, as the
        // paper runners evaluate their grids.
        const std::vector<double> p2 = {1e-3, 3e-3};
        exec::parallelFor(p2.size(), [&](std::size_t i) {
            qec::CircuitNoise noise;
            noise.p2 = p2[i];
            qec::surfaceLogicalErrorPerRound(3, 2, noise, 400, 42);
        });

        uec::uecLogicalErrorPerRound(qec::makeSteane(),
                                     10.0 * units::ms, 2, 400, 11);
    };

    const auto reference = runInstrumented(kWorkerCounts[0], workload);
    EXPECT_FALSE(reference.counters.empty());
    for (std::size_t w = 1; w < std::size(kWorkerCounts); ++w)
        expectSameCounters(runInstrumented(kWorkerCounts[w], workload),
                           reference, kWorkerCounts[w]);
}

} // namespace
} // namespace hetarch
