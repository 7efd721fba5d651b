/**
 * @file
 * Unit tests of the static timing/schedule analyzer
 * (lint/schedule.hh, lint/timing_model.hh): hand-verified ASAP
 * timelines, the depth-parity contract with stab::analyzeCircuit over
 * every builder circuit the lint CLI exposes, the hazard taxonomy, the
 * cross-validation of idleError against the density-matrix "idle-1us"
 * characterization, the shared elementary-symmetric budget kernel, a
 * Bernoulli Monte-Carlo dominance check of the idle bound, and the
 * timing-model constructors.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "cells/characterize.hh"
#include "cells/standard_cells.hh"
#include "core/rng.hh"
#include "core/units.hh"
#include "devices/device.hh"
#include "distill/dejmps.hh"
#include "lint/faults.hh"
#include "lint/schedule.hh"
#include "lint/timing_model.hh"
#include "qec/css_circuit.hh"
#include "qec/css_code.hh"
#include "qec/surface_circuit.hh"
#include "stab/circuit_stats.hh"
#include "stab/dem.hh"
#include "uec/assignment.hh"
#include "uec/lattice_baseline.hh"
#include "uec/uec_circuit.hh"

namespace hetarch {
namespace lint {
namespace sched {
namespace {

/**
 * The circuits behind the lint CLI's builder registry (keep in sync
 * with tools/hetarch_lint.cc): the depth-parity contract is pinned
 * over every one of them.
 */
std::vector<std::pair<std::string, stab::Circuit>>
builderCircuits()
{
    std::vector<std::pair<std::string, stab::Circuit>> out;
    out.emplace_back("surface-d3",
                     qec::surfaceMemoryZ(3, 3, qec::CircuitNoise{}));
    out.emplace_back("surface-d5",
                     qec::surfaceMemoryZ(5, 5, qec::CircuitNoise{}));
    out.emplace_back("surface-d7",
                     qec::surfaceMemoryZ(7, 7, qec::CircuitNoise{}));
    out.emplace_back("surface-x-d3",
                     qec::surfaceMemory(3, 3, qec::CircuitNoise{},
                                        qec::MemoryBasis::X));
    out.emplace_back("css-rep3",
                     qec::codeCapacityMemoryZ(qec::makeRepetition(3), 2,
                                              0.01, 0.01));
    out.emplace_back("css-steane",
                     qec::codeCapacityMemoryZ(qec::makeSteane(), 2,
                                              0.01, 0.01));
    {
        const auto code = qec::makeSteane();
        out.emplace_back(
            "uec-steane",
            uec::uecMemoryZ(code, uec::roundRobinAssignment(code), 2,
                            uec::UecNoise{}));
    }
    {
        const auto code = qec::makeSteane();
        uec::UecChain chain;
        chain.numUscExt = 1;
        out.emplace_back(
            "uec-chained-steane",
            uec::uecMemoryZ(code, uec::roundRobinAssignment(code, chain),
                            2, uec::UecNoise{}));
    }
    {
        const auto code = qec::makeSteane();
        out.emplace_back("lattice-steane",
                         uec::latticeMemoryZ(code,
                                             uec::embedOnLattice(code),
                                             2, uec::LatticeNoise{}));
    }
    out.emplace_back("dejmps", distill::dejmpsCircuit());
    return out;
}

// --- ASAP schedule ----------------------------------------------------

TEST(Schedule, UnitCriticalPathEqualsCircuitStatsDepthOnAllBuilders)
{
    // The contract that keeps the two ASAP schedulers from drifting:
    // under 1 ns per op the makespan IS the circuit depth, on every
    // circuit the repo can build.
    for (const auto& [name, circuit] : builderCircuits()) {
        const auto stats = stab::analyzeCircuit(circuit);
        const auto analysis = analyzeSchedule(
            circuit, TimingModel::unit(circuit.numQubits()));
        EXPECT_EQ(analysis.criticalPathNs,
                  static_cast<double>(stats.depth))
            << name;
        EXPECT_EQ(analysis.hazardErrors(), 0u) << name;
    }
}

TEST(Schedule, HandVerifiedTransmonTimeline)
{
    // R 0 1 [0,1000) ; X 0 [1000,1040) ; CX 0 1 joint-starts at 1040
    // (max of its targets' ready times) [1040,1140) ; M 1 [1140,2140).
    stab::Circuit c(2);
    c.reset(0);
    c.reset(1);
    c.x(0);
    c.cx(0, 1);
    const auto m = c.measure(1);
    c.detector({m});

    const auto model = TimingModel::uniform(
        devices::fixedFrequencyTransmon(), c.numQubits());
    const auto a = analyzeSchedule(c, model);

    ASSERT_EQ(a.schedule.size(), 5u);
    EXPECT_EQ(a.opsScheduled, 5u);
    EXPECT_DOUBLE_EQ(a.schedule[2].startNs, 1000.0); // R as two ops
    EXPECT_DOUBLE_EQ(a.schedule[2].endNs, 1040.0);
    EXPECT_DOUBLE_EQ(a.schedule[3].startNs, 1040.0);
    EXPECT_DOUBLE_EQ(a.schedule[3].endNs, 1140.0);
    EXPECT_DOUBLE_EQ(a.criticalPathNs, 2140.0);
    EXPECT_TRUE(a.hazards.empty());

    // Qubit 1 idles between its reset (end 1000) and the CX (1040).
    ASSERT_EQ(a.idleWindows.size(), 1u);
    EXPECT_EQ(a.idleWindows[0].qubit, 1u);
    EXPECT_DOUBLE_EQ(a.idleWindows[0].startNs, 1000.0);
    EXPECT_DOUBLE_EQ(a.idleWindows[0].endNs, 1040.0);
    EXPECT_DOUBLE_EQ(a.totalIdleNs, 40.0);
    ASSERT_EQ(a.qubits.size(), 2u);
    EXPECT_DOUBLE_EQ(a.qubits[0].busyNs, 1000.0 + 40.0 + 100.0);
    EXPECT_DOUBLE_EQ(a.qubits[0].idleNs, 0.0);
    EXPECT_DOUBLE_EQ(a.qubits[1].busyNs, 1000.0 + 100.0 + 1000.0);
    EXPECT_DOUBLE_EQ(a.qubits[1].idleNs, 40.0);
    EXPECT_EQ(a.qubits[1].idleWindows, 1u);
    EXPECT_EQ(a.qubits[1].device, "fixed-frequency-transmon");
}

TEST(Schedule, ScalingDurationsScalesTheCriticalPath)
{
    const auto circuit =
        qec::codeCapacityMemoryZ(qec::makeRepetition(3), 2, 0.01, 0.01);
    auto model = TimingModel::uniform(devices::fixedFrequencyTransmon(),
                                      circuit.numQubits());
    const auto base = analyzeSchedule(circuit, model);
    model.scaleDurations(2.0);
    const auto scaled = analyzeSchedule(circuit, model);
    EXPECT_DOUBLE_EQ(scaled.criticalPathNs, 2.0 * base.criticalPathNs);
    EXPECT_DOUBLE_EQ(scaled.totalIdleNs, 2.0 * base.totalIdleNs);
}

TEST(Schedule, NoiseAndAnnotationsAreUntimed)
{
    stab::Circuit c(1);
    c.reset(0);
    c.xError(0, 0.25);
    c.depolarize1(0, 0.125);
    const auto m = c.measure(0);
    c.detector({m});
    const auto a =
        analyzeSchedule(c, TimingModel::unit(c.numQubits()));
    EXPECT_EQ(a.opsScheduled, 2u); // R and M only
    EXPECT_DOUBLE_EQ(a.criticalPathNs, 2.0);
    EXPECT_TRUE(a.idleWindows.empty());
}

// --- idle-decoherence model -------------------------------------------

TEST(IdleError, MatchesDensityMatrixCharacterizationExactly)
{
    // cells::characterizeRegister derives "idle-1us" by exact density-
    // matrix simulation of dm::channels::idleChannel; the analytic
    // formula must agree to numerical precision on the same (T1, T2).
    const auto storage = devices::multimodeResonator3D();
    const auto reg = cells::makeRegister(
        storage, devices::fixedFrequencyTransmon());
    const auto ch = cells::characterizeRegister(reg);
    const auto& idle = ch.op("idle-1us");
    EXPECT_NEAR(idleError(1000.0, storage.t1, storage.t2),
                idle.errorRate, 1e-12);
}

TEST(IdleError, BasicShape)
{
    const double t1 = 300.0 * units::us;
    const double t2 = 550.0 * units::us;
    EXPECT_DOUBLE_EQ(idleError(0.0, t1, t2), 0.0);
    // Monotone in duration, clamped to [0, 1].
    double prev = 0.0;
    for (double t : {1e2, 1e4, 1e6, 1e8, 1e10}) {
        const double e = idleError(t, t1, t2);
        EXPECT_GE(e, prev);
        EXPECT_LE(e, 1.0);
        prev = e;
    }
    // Fully decohered limit: average error of the replace-with-mixed
    // channel over amplitude damping to |0> is 1/2.
    EXPECT_NEAR(idleError(1e12, t1, t2), 0.5, 1e-9);
}

// --- the shared budget kernel -----------------------------------------

TEST(ElementarySymmetricBound, MatchesUnionBoundAtWeight)
{
    // faults.cc delegates its union bound to the same kernel; pin the
    // equivalence through the public surfaces.
    const auto dem = stab::buildDetectorErrorModel(
        qec::surfaceMemoryZ(3, 3, qec::CircuitNoise{}));
    std::vector<double> probs;
    for (const auto& m : dem.mechanisms)
        probs.push_back(m.probability);
    for (std::size_t k = 1; k <= 4; ++k)
        EXPECT_DOUBLE_EQ(elementarySymmetricBound(probs, k),
                         unionBoundAtWeight(dem, k))
            << "k=" << k;
}

TEST(ElementarySymmetricBound, WeightAboveCountIsZeroWithoutAllocating)
{
    // e_k = 0 for k > n.  The DP once sized its buffer k + 1, which
    // wraps to 0 at SIZE_MAX and cannot be allocated at 1e14.
    const std::vector<double> p = {0.1, 0.2, 0.3};
    EXPECT_EQ(elementarySymmetricBound(p, p.size() + 1), 0.0);
    EXPECT_EQ(elementarySymmetricBound(p, 100000000000000u), 0.0);
    EXPECT_EQ(elementarySymmetricBound(p, SIZE_MAX), 0.0);
}

TEST(ElementarySymmetricBound, EdgeCases)
{
    EXPECT_DOUBLE_EQ(elementarySymmetricBound({}, 0), 1.0);
    EXPECT_DOUBLE_EQ(elementarySymmetricBound({0.5}, 0), 1.0);
    EXPECT_DOUBLE_EQ(elementarySymmetricBound({}, 1), 0.0);
    EXPECT_DOUBLE_EQ(elementarySymmetricBound({0.25}, 2), 0.0);
    EXPECT_DOUBLE_EQ(elementarySymmetricBound({0.1, 0.2}, 1), 0.3);
    EXPECT_NEAR(elementarySymmetricBound({0.1, 0.2, 0.3}, 2),
                0.1 * 0.2 + 0.1 * 0.3 + 0.2 * 0.3, 1e-15);
    // Cap at 1.
    EXPECT_DOUBLE_EQ(
        elementarySymmetricBound({0.9, 0.9, 0.9, 0.9, 0.9}, 1), 1.0);
}

TEST(IdleBound, BernoulliMonteCarloDominance)
{
    // e_k over independent window probabilities upper-bounds the
    // probability that >= k windows fire — the exact event the bound
    // budgets.  Sample it directly at fixed seed.
    const std::vector<double> probs = {0.12, 0.05, 0.2, 0.08, 0.15,
                                       0.03, 0.1};
    Rng rng(20260808);
    const std::size_t kShots = 200000;
    std::vector<std::size_t> atLeast(4, 0);
    for (std::size_t s = 0; s < kShots; ++s) {
        std::size_t fired = 0;
        for (const double p : probs)
            fired += rng.uniform() < p ? 1 : 0;
        for (std::size_t k = 1; k <= 3; ++k)
            atLeast[k] += fired >= k ? 1 : 0;
    }
    for (std::size_t k = 1; k <= 3; ++k) {
        const double empirical =
            static_cast<double>(atLeast[k]) / kShots;
        EXPECT_GE(elementarySymmetricBound(probs, k), empirical)
            << "k=" << k;
    }
}

TEST(IdleBound, WeightComesFromTheFaultStructure)
{
    // Surface d=3 memory: one observable, certified distance 3, so the
    // idle budget is evaluated at k = ceil(3 / 2) = 2.
    const auto circuit = qec::surfaceMemoryZ(3, 3, qec::CircuitNoise{});
    const auto faults = analyzeCircuitFaults(circuit);
    ASSERT_EQ(faults.observables.size(), 1u);
    ASSERT_EQ(faults.observables[0].distance, 3u);

    const auto model = TimingModel::uniform(
        devices::fixedFrequencyTransmon(), circuit.numQubits());
    SchedOptions options;
    options.faults = &faults;
    const auto a = analyzeSchedule(circuit, model, options);
    ASSERT_EQ(a.observables.size(), 1u);
    EXPECT_EQ(a.observables[0].weight, 2u);

    // Without the fault structure the bound degrades to k = 1 and can
    // only grow.
    const auto plain = analyzeSchedule(circuit, model);
    ASSERT_EQ(plain.observables.size(), 1u);
    EXPECT_EQ(plain.observables[0].weight, 1u);
    EXPECT_GE(plain.observables[0].idleBound,
              a.observables[0].idleBound);
    EXPECT_GT(plain.certifiedIdleBound(), 0.0);
}

TEST(IdleBound, UnflippableObservableGetsZeroBudget)
{
    // An observable with no undetected fault path (kInfiniteDistance)
    // cannot be flipped by idle decoherence through the fault graph:
    // weight 0, bound 0.
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
    ASSERT_EQ(faults.observables.size(), 1u);
    ASSERT_EQ(faults.observables[0].distance, kInfiniteDistance);

    SchedOptions options;
    options.faults = &faults;
    const auto a = analyzeSchedule(
        c,
        TimingModel::uniform(devices::fixedFrequencyTransmon(),
                             c.numQubits()),
        options);
    ASSERT_EQ(a.observables.size(), 1u);
    EXPECT_EQ(a.observables[0].weight, 0u);
    EXPECT_DOUBLE_EQ(a.observables[0].idleBound, 0.0);
    EXPECT_DOUBLE_EQ(a.certifiedIdleBound(), 0.0);
}

// --- hazard taxonomy --------------------------------------------------

/** Count hazards from one pass. */
std::size_t
countPass(const ScheduleAnalysis& a, const std::string& pass)
{
    std::size_t n = 0;
    for (const auto& h : a.hazards)
        n += h.pass == pass ? 1 : 0;
    return n;
}

/** Compute/storage register: qubit 2 on one shared storage instance. */
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

TEST(Hazards, GateOnStorageDevice)
{
    stab::Circuit c(3);
    c.reset(0);
    c.x(0);
    c.swap(0, 2);
    c.x(2); // storage devices are SWAP-only (DR2)
    const auto a = analyzeSchedule(c, registerModel(3, {2}));
    EXPECT_EQ(countPass(a, "sched-gateset"), 1u);
    EXPECT_EQ(a.hazardErrors(), 1u);
}

TEST(Hazards, MeasurementWithoutReadoutAndDoomedFeedback)
{
    stab::Circuit c(2);
    c.reset(0);
    c.x(0);
    c.swap(0, 1);
    const auto m = c.measure(1); // storage has no readout circuitry
    c.detector({m});             // ... so this record never completes
    const auto a = analyzeSchedule(c, registerModel(2, {1}));
    EXPECT_EQ(countPass(a, "sched-readout"), 1u);
    EXPECT_EQ(countPass(a, "sched-feedback"), 1u);
    EXPECT_EQ(a.hazardErrors(), 2u);

    // The same record consumed on a readout-capable device is fine.
    stab::Circuit ok(2);
    ok.reset(0);
    ok.x(0);
    const auto mok = ok.measure(0);
    ok.detector({mok});
    const auto clean = analyzeSchedule(ok, registerModel(2, {1}));
    EXPECT_TRUE(clean.hazards.empty());
}

TEST(Hazards, InstanceOverCapacity)
{
    stab::Circuit c(3);
    c.reset(0);
    c.swap(0, 1);
    c.swap(0, 2);
    const auto m = c.measure(0);
    c.detector({m});
    // 3d-quantum-memory has a single mode; hosting two qubits on one
    // instance of it is a static capacity violation.
    const auto a = analyzeSchedule(
        c, registerModel(3, {1, 2}, devices::quantumMemory3D()));
    EXPECT_EQ(countPass(a, "sched-capacity"), 1u);
    // The SWAPs serialize through qubit 0, so no port overlap rides
    // along.
    EXPECT_EQ(countPass(a, "sched-overlap"), 0u);
}

TEST(Hazards, ConcurrentSwapsConflictOnTheStoragePort)
{
    stab::Circuit c(4);
    c.reset(0);
    c.reset(1);
    c.swap(0, 2); // both SWAPs become ready at the same instant and
    c.swap(1, 3); // land on the shared instance's single port
    const auto m0 = c.measure(0);
    const auto m1 = c.measure(1);
    c.detector({m0});
    c.detector({m1});
    const auto a = analyzeSchedule(c, registerModel(4, {2, 3}));
    EXPECT_EQ(countPass(a, "sched-overlap"), 1u);
    EXPECT_EQ(countPass(a, "sched-capacity"), 0u);

    // Serialized accesses (forced by a shared compute qubit) are fine.
    stab::Circuit ser(3);
    ser.reset(0);
    ser.swap(0, 1);
    ser.swap(0, 2);
    const auto m = ser.measure(0);
    ser.detector({m});
    const auto ok = analyzeSchedule(ser, registerModel(3, {1, 2}));
    EXPECT_EQ(countPass(ok, "sched-overlap"), 0u);
}

TEST(Hazards, GateAfterMeasurementWithoutResetWarns)
{
    stab::Circuit c(2);
    c.reset(0);
    c.reset(1);
    const auto m0 = c.measure(0);
    c.x(0); // collapsed qubit re-enters gates: warning, not error
    c.cx(0, 1);
    const auto m1 = c.measure(1);
    c.detector({m0});
    c.detector({m1});
    const auto a = analyzeSchedule(
        c, TimingModel::uniform(devices::fixedFrequencyTransmon(),
                                c.numQubits()));
    EXPECT_EQ(countPass(a, "sched-reset-gap"), 1u);
    EXPECT_EQ(a.hazardErrors(), 0u); // warning-severity
    ASSERT_EQ(countPass(a, "sched-reset-gap"), 1u);
    for (const auto& h : a.hazards) {
        if (h.pass == "sched-reset-gap") {
            EXPECT_EQ(h.severity, Severity::Warning);
        }
    }

    // MR clears the collapse: no warning.
    stab::Circuit ok(1);
    ok.reset(0);
    const auto m = ok.measureReset(0);
    ok.x(0);
    const auto m2 = ok.measure(0);
    ok.detector({m});
    ok.detector({m2});
    const auto clean = analyzeSchedule(
        ok, TimingModel::uniform(devices::fixedFrequencyTransmon(), 1));
    EXPECT_EQ(countPass(clean, "sched-reset-gap"), 0u);
}

TEST(Hazards, FindingsCarryThroughScheduleFindings)
{
    stab::Circuit c(3);
    c.reset(0);
    c.x(0);
    c.swap(0, 2);
    c.x(2);
    const auto a = analyzeSchedule(c, registerModel(3, {2}));
    LintReport report;
    scheduleFindings(a, report);
    EXPECT_EQ(report.errorCount(), a.hazardErrors());
    bool latency_info = false;
    for (const auto& f : report.findings)
        latency_info = latency_info || f.pass == "sched-latency";
    EXPECT_TRUE(latency_info);
}

// --- timing model -----------------------------------------------------

TEST(TimingModelTest, WithStorageSharesOneInstance)
{
    const auto model = registerModel(4, {1, 3});
    ASSERT_EQ(model.assignment.size(), 4u);
    // Storage qubits share instance 0; compute qubits get private
    // instances.
    EXPECT_EQ(model.assignment[1], model.assignment[3]);
    EXPECT_NE(model.assignment[0], model.assignment[2]);
    EXPECT_TRUE(model.deviceFor(1).storage);
    EXPECT_FALSE(model.deviceFor(0).storage);
    EXPECT_FALSE(model.deviceFor(1).hasReadout);
    EXPECT_TRUE(model.deviceFor(0).hasReadout);
}

} // namespace
} // namespace sched
} // namespace lint
} // namespace hetarch
