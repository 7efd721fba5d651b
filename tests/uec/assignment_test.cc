/**
 * @file
 * Tests for UEC qubit assignment and serialized scheduling.
 */

#include <gtest/gtest.h>

#include "qec/css_code.hh"
#include "uec/assignment.hh"

namespace hetarch {
namespace uec {
namespace {

TEST(Assignment, RoundRobinBalances)
{
    const auto code = qec::makeSteane();
    const auto a = roundRobinAssignment(code);
    std::vector<int> load(3, 0);
    for (auto r : a.registerOf)
        ++load[static_cast<std::size_t>(r)];
    EXPECT_LE(*std::max_element(load.begin(), load.end()),
              *std::min_element(load.begin(), load.end()) + 1);
}

TEST(Schedule, SerializesThroughAncilla)
{
    const auto code = qec::makeSteane();
    const auto a = roundRobinAssignment(code);
    const auto sched = buildRoundSchedule(code, a);
    // Ancilla ops (CNOT/measure/prep) must never overlap.
    std::vector<std::pair<double, double>> anc_busy;
    for (const auto& op : sched.ops) {
        if (op.kind == TimedOp::Kind::Cnot ||
            op.kind == TimedOp::Kind::AncMeasure ||
            op.kind == TimedOp::Kind::AncPrep)
            anc_busy.push_back({op.start, op.end});
    }
    std::sort(anc_busy.begin(), anc_busy.end());
    for (std::size_t i = 1; i < anc_busy.size(); ++i)
        EXPECT_GE(anc_busy[i].first, anc_busy[i - 1].second - 1e-9);
}

TEST(Schedule, RegisterComputeSerializesPerRegister)
{
    const auto code = qec::makeColorCode(5);
    const auto a = roundRobinAssignment(code);
    const auto sched = buildRoundSchedule(code, a);
    // Swap ops of qubits in the same register must not overlap.
    std::vector<std::vector<std::pair<double, double>>> busy(3);
    for (const auto& op : sched.ops) {
        if (op.kind == TimedOp::Kind::SwapOut ||
            op.kind == TimedOp::Kind::SwapIn) {
            busy[static_cast<std::size_t>(
                     a.registerOf[op.dataQubit])]
                .push_back({op.start, op.end});
        }
    }
    for (auto& intervals : busy) {
        std::sort(intervals.begin(), intervals.end());
        for (std::size_t i = 1; i < intervals.size(); ++i)
            EXPECT_GE(intervals[i].first,
                      intervals[i - 1].second - 1e-9);
    }
}

TEST(Schedule, DurationCoversAllOps)
{
    const auto code = qec::makeReedMuller15();
    const auto a = roundRobinAssignment(code);
    const auto sched = buildRoundSchedule(code, a);
    for (const auto& op : sched.ops) {
        EXPECT_GE(op.start, 0.0);
        EXPECT_LE(op.end, sched.duration + 1e-9);
        EXPECT_LT(op.start, op.end);
    }
}

TEST(Schedule, OutOfStorageAccounting)
{
    const auto code = qec::makeSteane();
    const auto a = roundRobinAssignment(code);
    const UecTimes times;
    const auto sched = buildRoundSchedule(code, a, times);
    // Each qubit appears once per check containing it; it is out of
    // storage for at least swap+cnot+swap per appearance.
    for (std::size_t q = 0; q < code.n; ++q) {
        std::size_t appearances = 0;
        for (const auto& s : code.zChecks)
            appearances += std::count(s.begin(), s.end(), q);
        for (const auto& s : code.xChecks)
            appearances += std::count(s.begin(), s.end(), q);
        EXPECT_GE(sched.outOfStorage[q],
                  static_cast<double>(appearances) *
                      (2.0 * times.swap + times.cnot) - 1e-9);
    }
}

TEST(Assignment, OptimizedNotWorseThanRoundRobin)
{
    for (const auto& code :
         {qec::makeSteane(), qec::makeReedMuller15()}) {
        const auto rr = roundRobinAssignment(code);
        const auto opt = optimizeAssignment(code);
        const auto sched_rr = buildRoundSchedule(code, rr);
        const auto sched_opt = buildRoundSchedule(code, opt);
        EXPECT_LE(sched_opt.duration, sched_rr.duration + 1e-9)
            << code.name;
    }
}

TEST(Assignment, RespectsCapacity)
{
    const auto code = qec::makeColorCode(5); // 19 qubits
    const auto opt = optimizeAssignment(code);
    std::vector<int> load(3, 0);
    for (auto r : opt.registerOf)
        ++load[static_cast<std::size_t>(r)];
    for (auto l : load)
        EXPECT_LE(l, 10);
}

TEST(Assignment, OversizedCodeDies)
{
    const auto code = qec::makeRotatedSurface(6); // 36 > 30 qubits
    EXPECT_DEATH(optimizeAssignment(code), "does not fit");
}

} // namespace
} // namespace uec
} // namespace hetarch
