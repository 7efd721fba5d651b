/**
 * @file
 * Tests for the chained UEC (USC + USC-EXT) extension: capacity beyond
 * 30 qubits, concurrent ancilla lanes, and routing costs.
 */

#include <gtest/gtest.h>

#include "core/units.hh"
#include "qec/css_code.hh"
#include "qec/memory_experiment.hh"
#include "stab/dem.hh"
#include "stab/tableau.hh"
#include "uec/uec_circuit.hh"

namespace hetarch {
namespace uec {
namespace {

using namespace units;

TEST(UecChain, GeometryHelpers)
{
    UecChain chain;
    chain.numUscExt = 2;
    EXPECT_EQ(chain.numRegisters(), 7);
    EXPECT_EQ(chain.numAncillas(), 3);
    EXPECT_EQ(chain.cellOfRegister(0), 0);
    EXPECT_EQ(chain.cellOfRegister(2), 0);
    EXPECT_EQ(chain.cellOfRegister(3), 1);
    EXPECT_EQ(chain.cellOfRegister(4), 1);
    EXPECT_EQ(chain.cellOfRegister(5), 2);
    EXPECT_EQ(chain.cellOfRegister(6), 2);
}

TEST(UecChain, ScheduleParallelizesAcrossAncillas)
{
    // With the support split cell-locally, two ancilla lanes can run
    // concurrently, so the chained round is shorter than the
    // single-ancilla round of the same code.
    const auto code = qec::makeRotatedSurface(5); // 25 qubits
    UecChain chain;
    chain.numUscExt = 1;
    const auto chained =
        buildRoundSchedule(code, roundRobinAssignment(code, chain));
    const auto single = buildRoundSchedule(code, roundRobinAssignment(code));
    EXPECT_LT(chained.duration, single.duration);
}

TEST(UecChain, AncillaLanesNeverOverlap)
{
    const auto code = qec::makeColorCode(5);
    UecChain chain;
    chain.numUscExt = 1;
    const auto sched =
        buildRoundSchedule(code, roundRobinAssignment(code, chain));
    std::vector<std::vector<std::pair<double, double>>> busy(
        static_cast<std::size_t>(chain.numAncillas()));
    for (const auto& op : sched.ops) {
        if (op.kind == TimedOp::Kind::Cnot ||
            op.kind == TimedOp::Kind::AncMeasure ||
            op.kind == TimedOp::Kind::AncPrep) {
            busy[static_cast<std::size_t>(op.ancilla)].push_back(
                {op.start, op.end});
        }
    }
    for (auto& intervals : busy) {
        std::sort(intervals.begin(), intervals.end());
        for (std::size_t i = 1; i < intervals.size(); ++i)
            EXPECT_GE(intervals[i].first,
                      intervals[i - 1].second - 1e-9);
    }
}

TEST(UecChain, SupportsCodesBeyondThirtyQubits)
{
    // Surface-6 (36 data qubits) exceeds the single-USC capacity but
    // fits a USC + one USC-EXT (50 modes).
    const auto code = qec::makeRotatedSurface(6);
    UecChain chain;
    chain.numUscExt = 1;
    const auto a = roundRobinAssignment(code, chain);
    UecNoise noise;
    const auto circ = uecMemoryZ(code, a, 2, noise);
    EXPECT_TRUE(stab::findNondeterminism(circ).empty());
    // The sampled oracle misses a single coin with odds 2^-31 at 32 runs.
    EXPECT_TRUE(
        stab::TableauSimulator::checkDetectorsDeterministic(circ, 32));

    Rng rng(3);
    const auto res = qec::runMemoryExperiment(
        circ, 800, 2, qec::DecoderKind::GreedyDem, rng);
    EXPECT_LT(res.perShot(), 0.5);
}

TEST(UecChain, RoutingHopsDegradeFidelity)
{
    // Deliberately bad assignment: spread every check across cells so
    // routing hops dominate; must be worse than the local assignment.
    const auto code = qec::makeRotatedSurface(4); // 16 qubits
    UecChain chain;
    chain.numUscExt = 1;
    UecNoise noise;

    Assignment local;
    local.chain = chain;
    local.registerOf.assign(code.n, 0);
    for (std::size_t q = 0; q < code.n; ++q)
        local.registerOf[q] = static_cast<int>(q % 3); // all in cell 0

    Assignment spread = local;
    for (std::size_t q = 0; q < code.n; ++q)
        spread.registerOf[q] =
            static_cast<int>(q % chain.numRegisters());

    auto run = [&](const Assignment& a, std::uint64_t seed) {
        const auto circ = uecMemoryZ(code, a, 2, noise);
        Rng rng(seed);
        return qec::runMemoryExperiment(circ, 2500, 2,
                                        qec::DecoderKind::GreedyDem, rng)
            .perShot();
    };
    // Spread assignment pays routing noise on most CNOTs; local pays
    // none. (Spread also parallelizes, so compare error only.)
    EXPECT_GT(run(spread, 5), run(local, 7) * 0.8);
}

} // namespace
} // namespace uec
} // namespace hetarch
