/**
 * @file
 * Unit tests of the qubit-dataflow / storage-residency analyzer
 * (lint/dataflow.hh): hand-verified residency intervals on a
 * park/retrieve register, every hazard in the flow taxonomy with its
 * clean counterpart, the live-idle refinement against the schedule
 * analyzer, and the certified end-to-end budget composition.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "devices/device.hh"
#include "lint/dataflow.hh"
#include "lint/faults.hh"
#include "lint/schedule.hh"
#include "qec/surface_circuit.hh"
#include "stab/dem.hh"

namespace hetarch {
namespace lint {
namespace flow {
namespace {

/** Count hazards from one pass. */
std::size_t
countPass(const FlowAnalysis& a, const std::string& pass)
{
    std::size_t n = 0;
    for (const auto& h : a.hazards)
        n += h.pass == pass ? 1 : 0;
    return n;
}

/** Compute/storage register (same helper as the schedule tests). */
TimingModel
registerModel(std::size_t num_qubits,
              const std::vector<std::uint32_t>& storage_qubits,
              const devices::DeviceModel& storage =
                  devices::multimodeResonator3D())
{
    return TimingModel::withStorage(devices::fixedFrequencyTransmon(),
                                    storage, num_qubits,
                                    storage_qubits);
}

// --- the clean park/retrieve cycle ------------------------------------

TEST(Dataflow, HandVerifiedParkRetrieve)
{
    // R 0 [0,1000) ; X 0 [1000,1040) ; SWAP 0 1 (deposit)
    // [1040,1440) ; SWAP 0 1 (retrieve) [1440,1840) ; M 0
    // [1840,2840).  3d-multimode-resonator swap = 400 ns.
    stab::Circuit c(2);
    c.reset(0);
    c.x(0);
    c.swap(0, 1);
    c.swap(0, 1);
    const auto m = c.measure(0);
    c.detector({m});

    const auto a = analyzeFlow(c, registerModel(2, {1}));
    EXPECT_TRUE(a.hazards.empty());
    EXPECT_EQ(a.opsTracked, 5u);
    EXPECT_EQ(a.swapCount, 2u);
    EXPECT_DOUBLE_EQ(a.movementNs, 800.0);

    ASSERT_EQ(a.residencies.size(), 1u);
    const auto& r = a.residencies[0];
    EXPECT_EQ(r.qubit, 1u);
    EXPECT_DOUBLE_EQ(r.startNs, 1440.0); // deposit SWAP completes
    EXPECT_DOUBLE_EQ(r.endNs, 1440.0);   // retrieval SWAP starts
    EXPECT_EQ(r.depositOp, 2u);
    EXPECT_EQ(r.retrieveOp, 3u);
    EXPECT_FALSE(r.orphaned);

    EXPECT_EQ(a.peakStorageOccupancy, 1u);
    ASSERT_EQ(a.instances.size(), 1u);
    EXPECT_EQ(a.instances[0].device, "3d-multimode-resonator");
    EXPECT_EQ(a.instances[0].residencies, 1u);
    EXPECT_EQ(a.instances[0].peakOccupancy, 1u);
}

// --- hazard taxonomy --------------------------------------------------

TEST(Hazards, SwapWithNeverWrittenStorageRetrievesVacuum)
{
    // The SWAP's "retrieval" half brings back vacuum: the storage mode
    // was never deposited into.  The hazard cascades — the vacuum then
    // flows into the measurement record the DETECTOR consumes.
    stab::Circuit c(2);
    c.reset(0);
    c.swap(0, 1); // q0 holds Fresh |0>, storage holds vacuum
    const auto m = c.measure(0);
    c.detector({m});
    const auto a = analyzeFlow(c, registerModel(2, {1}));
    EXPECT_EQ(countPass(a, "flow-use-before-init"), 2u);
    EXPECT_EQ(a.hazardErrors(), 2u);
    EXPECT_EQ(a.hazards[0].opIndex, 1u); // the SWAP
    EXPECT_EQ(a.hazards[1].opIndex, 3u); // the DETECTOR
}

TEST(Hazards, MeasuringMovedVacuumPoisonsTheRecord)
{
    // Deposit, forget to retrieve, measure the compute qubit anyway:
    // the DETECTOR consumes the measurement of vacuum, and the parked
    // state is orphaned.
    stab::Circuit c(2);
    c.reset(0);
    c.x(0);
    c.swap(0, 1); // deposit; q0 now holds moved vacuum
    const auto m = c.measure(0);
    c.detector({m});
    const auto a = analyzeFlow(c, registerModel(2, {1}));
    EXPECT_EQ(countPass(a, "flow-use-before-init"), 1u);
    EXPECT_EQ(countPass(a, "flow-orphan"), 1u);

    // A local reset between deposit and measurement makes the record
    // legitimate |0> physics: only the orphan remains.
    stab::Circuit ok(2);
    ok.reset(0);
    ok.x(0);
    ok.swap(0, 1);
    ok.reset(0);
    const auto mok = ok.measure(0);
    ok.detector({mok});
    const auto b = analyzeFlow(ok, registerModel(2, {1}));
    EXPECT_EQ(countPass(b, "flow-use-before-init"), 0u);
    EXPECT_EQ(countPass(b, "flow-orphan"), 1u);
}

TEST(Hazards, StaleStorageHonorsTheThreshold)
{
    // The parked state sits ~1000 ns (the compute qubit's reset)
    // between deposit and retrieval.
    stab::Circuit c(2);
    c.reset(0);
    c.x(0);
    c.swap(0, 1);
    c.reset(0); // 1000 ns on the transmon
    c.swap(0, 1);
    const auto m = c.measure(0);
    c.detector({m});

    const auto model = registerModel(2, {1});
    FlowOptions strict;
    strict.staleAfterNs = 500.0;
    const auto a = analyzeFlow(c, model, strict);
    EXPECT_EQ(countPass(a, "flow-stale-storage"), 1u);
    EXPECT_EQ(a.hazardErrors(), 0u); // warning-severity

    // Default threshold is the hosting device's T2 (2.5 ms here):
    // 1000 ns resident is nowhere near stale.
    const auto b = analyzeFlow(c, model);
    EXPECT_EQ(countPass(b, "flow-stale-storage"), 0u);
    ASSERT_EQ(b.residencies.size(), 1u);
    EXPECT_DOUBLE_EQ(b.residencies[0].durationNs(), 1000.0);
}

TEST(Hazards, DoubleSwapClobbersTheParkedState)
{
    stab::Circuit c(3);
    c.reset(0);
    c.reset(1);
    c.x(0);
    c.x(1);
    c.swap(0, 2); // deposit
    c.swap(1, 2); // second deposit: the first state pops out into q1
    const auto m0 = c.measure(0);
    const auto m1 = c.measure(1);
    c.detector({m1});
    c.observableInclude(0, {m0, m1});
    const auto a = analyzeFlow(c, registerModel(3, {2}));
    EXPECT_EQ(countPass(a, "flow-double-swap"), 1u);
    // The exchange preserves state, so q1 ends up holding the first
    // deposit — still Data, so its record is not vacuum; but m0 reads
    // moved vacuum.
    EXPECT_EQ(countPass(a, "flow-use-before-init"), 1u);
    // The second deposit is still resident at circuit end.
    EXPECT_EQ(countPass(a, "flow-orphan"), 1u);
}

TEST(Hazards, LiveOccupancyOverflowsTheModeCount)
{
    // 3d-quantum-memory has one mode; two simultaneous live deposits
    // on the shared instance overflow it.
    stab::Circuit c(4);
    c.reset(0);
    c.reset(1);
    c.x(0);
    c.x(1);
    c.swap(0, 2);
    c.swap(1, 3);
    c.swap(0, 2);
    c.swap(1, 3);
    const auto m0 = c.measure(0);
    const auto m1 = c.measure(1);
    c.detector({m0});
    c.detector({m1});
    const auto a = analyzeFlow(
        c, registerModel(4, {2, 3}, devices::quantumMemory3D()));
    EXPECT_EQ(countPass(a, "flow-capacity"), 1u);
    EXPECT_EQ(a.peakStorageOccupancy, 2u);

    // Sequential residencies (retrieve before the second deposit)
    // respect the single mode.
    stab::Circuit seq(4);
    seq.reset(0);
    seq.reset(1);
    seq.x(0);
    seq.x(1);
    seq.swap(0, 2);
    seq.swap(0, 2);
    seq.swap(1, 3);
    seq.swap(1, 3);
    const auto n0 = seq.measure(0);
    const auto n1 = seq.measure(1);
    seq.detector({n0});
    seq.detector({n1});
    const auto b = analyzeFlow(
        seq, registerModel(4, {2, 3}, devices::quantumMemory3D()));
    EXPECT_EQ(countPass(b, "flow-capacity"), 0u);
    EXPECT_EQ(b.peakStorageOccupancy, 1u);
    EXPECT_EQ(b.residencies.size(), 2u);
}

TEST(Hazards, GateOnMeasuredStateWarnsThroughTheFlow)
{
    stab::Circuit c(1);
    c.reset(0);
    const auto m = c.measure(0);
    c.x(0); // consumes Collapsed content
    const auto m2 = c.measure(0);
    c.detector({m});
    c.detector({m2});
    const auto a = analyzeFlow(
        c, TimingModel::uniform(devices::fixedFrequencyTransmon(), 1));
    EXPECT_EQ(countPass(a, "flow-measure-reuse"), 1u);
    EXPECT_EQ(a.hazardErrors(), 0u);

    // MR clears the collapse.
    stab::Circuit ok(1);
    ok.reset(0);
    const auto mm = ok.measureReset(0);
    ok.x(0);
    const auto mm2 = ok.measure(0);
    ok.detector({mm});
    ok.detector({mm2});
    const auto b = analyzeFlow(
        ok, TimingModel::uniform(devices::fixedFrequencyTransmon(), 1));
    EXPECT_EQ(countPass(b, "flow-measure-reuse"), 0u);
}

TEST(Hazards, FindingsCarryThroughFlowFindings)
{
    stab::Circuit c(2);
    c.reset(0);
    c.x(0);
    c.swap(0, 1);
    const auto m = c.measure(0);
    c.detector({m});
    const auto a = analyzeFlow(c, registerModel(2, {1}));
    LintReport report;
    flowFindings(a, report);
    EXPECT_EQ(report.errorCount(), a.hazardErrors());
    bool summary = false;
    for (const auto& f : report.findings)
        summary = summary || f.pass == "flow-summary";
    EXPECT_TRUE(summary);
}

// --- live idle refinement ---------------------------------------------

TEST(Dataflow, LiveIdleIsASubsetOfScheduleIdle)
{
    // Every live idle window is a schedule idle window; windows where
    // the location holds vacuum are excluded from the budget.
    const auto circuit = qec::surfaceMemoryZ(3, 3, qec::CircuitNoise{});
    const auto model = TimingModel::uniform(
        devices::fixedFrequencyTransmon(), circuit.numQubits());
    const auto sched_a = sched::analyzeSchedule(circuit, model);
    const auto flow_a = analyzeFlow(circuit, model);
    EXPECT_LE(flow_a.liveIdleWindows, sched_a.idleWindows.size());
    EXPECT_LE(flow_a.liveIdleNs, sched_a.totalIdleNs);
    EXPECT_EQ(flow_a.opsTracked, sched_a.opsScheduled);
    EXPECT_DOUBLE_EQ(flow_a.criticalPathNs, sched_a.criticalPathNs);
}

// --- certified end-to-end budgets -------------------------------------

TEST(Budget, ComposesGateAndIdleBoundsAtTheCertifiedWeight)
{
    const auto circuit = qec::surfaceMemoryZ(3, 3, qec::CircuitNoise{});
    const auto faults = analyzeCircuitFaults(circuit);
    ASSERT_EQ(faults.observables.size(), 1u);
    ASSERT_EQ(faults.observables[0].distance, 3u);

    const auto model = TimingModel::uniform(
        devices::fixedFrequencyTransmon(), circuit.numQubits());
    FlowOptions options;
    options.faults = &faults;
    options.gateBudget = true;
    const auto a = analyzeFlow(circuit, model, options);

    ASSERT_EQ(a.observables.size(), 1u);
    const auto& b = a.observables[0];
    EXPECT_EQ(b.weight, 2u); // ceil(3 / 2)
    // The gate half IS the PR-4 union bound at the same weight.
    EXPECT_DOUBLE_EQ(b.gateBound, faults.observables[0].unionBound);
    // The composition dominates both halves and is non-vacuous.
    EXPECT_GE(b.budget, b.gateBound);
    EXPECT_GE(b.budget, b.idleBound);
    EXPECT_GT(b.budget, 0.0);
    EXPECT_LE(b.budget, 1.0);
    EXPECT_DOUBLE_EQ(a.maxBudget(), b.budget);
}

TEST(Budget, WithoutGateBudgetTheIdleHalfStands)
{
    const auto circuit = qec::surfaceMemoryZ(3, 3, qec::CircuitNoise{});
    const auto model = TimingModel::uniform(
        devices::fixedFrequencyTransmon(), circuit.numQubits());
    const auto a = analyzeFlow(circuit, model);
    ASSERT_EQ(a.observables.size(), 1u);
    EXPECT_EQ(a.observables[0].weight, 1u); // no fault structure
    EXPECT_DOUBLE_EQ(a.observables[0].gateBound, 0.0);
    EXPECT_DOUBLE_EQ(a.observables[0].budget,
                     a.observables[0].idleBound);
}

TEST(Budget, UnflippableObservableGetsZeroBudget)
{
    stab::Circuit c(2);
    c.reset(0);
    c.reset(1);
    c.cx(0, 1);
    const auto m0 = c.measure(0);
    const auto m1 = c.measure(1);
    c.detector({m0});
    c.detector({m1});
    c.observableInclude(0, {m0});
    const auto faults = analyzeCircuitFaults(c);
    ASSERT_EQ(faults.observables[0].distance, kInfiniteDistance);

    FlowOptions options;
    options.faults = &faults;
    const auto a = analyzeFlow(
        c,
        TimingModel::uniform(devices::fixedFrequencyTransmon(),
                             c.numQubits()),
        options);
    ASSERT_EQ(a.observables.size(), 1u);
    EXPECT_EQ(a.observables[0].weight, 0u);
    EXPECT_DOUBLE_EQ(a.observables[0].budget, 0.0);
}

} // namespace
} // namespace flow
} // namespace lint
} // namespace hetarch
