/**
 * @file
 * Static timing/schedule analyzer (`hetarch::lint::sched`): lowers a
 * stab::Circuit plus a TimingModel into per-qubit timelines and
 * certifies three things about them before a single shot is simulated.
 *
 *  latency   ASAP schedule over per-qubit ready times, every op costed
 *            from its qubits' device timing (timing_model.hh).  The
 *            critical path is the makespan; per-op start/end times and
 *            per-qubit busy/idle decompositions are part of the result.
 *            Under TimingModel::unit the critical path equals
 *            stab::CircuitStats::depth exactly (pinned by tests), so
 *            the two schedulers cannot drift apart.
 *
 *  idle bound  Idle windows (gaps between a qubit's timed ops) decohere
 *            at the hosting device's T1/T2; each window is an
 *            independent error mechanism with probability
 *            idleError(gap, T1, T2).  For an observable certified at
 *            fault distance d (lint::analyzeFaults), failure under
 *            min-weight decoding requires at least k = ceil(d / 2)
 *            mechanisms to fire, so the idle-decoherence contribution
 *            is bounded by e_k over the window probabilities — the same
 *            elementary-symmetric-polynomial argument as the fault
 *            analyzer's union bound (elementarySymmetricBound).
 *            Without a fault analysis, k = 1 (a plain union bound).
 *            Observables fan out over exec::parallelFor with ordered
 *            reduction: bit-identical at any worker count.
 *
 *  hazards   Structural timing defects, reported as LintFindings:
 *     sched-gateset    [error]   gate/reset on a SWAP-only storage
 *                                device (DR2: storage is accessed, not
 *                                operated; measurements are the
 *                                readout pass's concern)
 *     sched-readout    [error]   M/MR on a device without readout
 *     sched-feedback   [error]   DETECTOR/OBSERVABLE consumes a record
 *                                whose measurement can never complete
 *                                (produced on a readout-less device)
 *     sched-capacity   [error]   more qubits assigned to an instance
 *                                than it has modes
 *     sched-overlap    [error]   two ops in flight simultaneously on
 *                                one multi-qubit instance (a storage
 *                                resonator owns a single port; ASAP
 *                                per-qubit schedules can demand
 *                                concurrency the hardware lacks)
 *     sched-reset-gap  [warning] a measured qubit re-enters gates
 *                                without an intervening reset
 *
 *  Per-qubit overlap hazards cannot arise: ASAP ready times serialize
 *  each qubit by construction.  Likewise a record used "before" its
 *  readout completes is excluded by construction (a stab::Circuit
 *  holds no forward references) — what survives statically is the
 *  record that never completes at all, which is sched-feedback.
 *
 * The analysis is a pure function of (circuit, model, options) and is
 * not memoized: hashing the circuit for a cache key costs a quarter to
 * a half of a fresh analysis, and callers rarely repeat a triple.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "lint/faults.hh"
#include "lint/lint.hh"
#include "lint/timing_model.hh"
#include "stab/circuit.hh"

namespace hetarch {
namespace lint {
namespace sched {

/** One scheduled operation (timed ops only). */
struct ScheduledOp
{
    std::uint32_t op = 0;  ///< index into Circuit::ops()
    double startNs = 0.0;
    double endNs = 0.0;

    bool operator==(const ScheduledOp&) const = default;
};

/** A gap between two timed ops on one qubit. */
struct IdleWindow
{
    std::uint32_t qubit = 0;
    double startNs = 0.0;
    double endNs = 0.0;
    /** idleError(end - start, T1, T2) of the hosting device. */
    double errorProb = 0.0;

    double durationNs() const { return endNs - startNs; }

    bool operator==(const IdleWindow&) const = default;
};

/** Busy/idle decomposition of one qubit's timeline. */
struct QubitTimeline
{
    std::uint32_t qubit = 0;
    std::string device;      ///< hosting instance's catalog name
    double busyNs = 0.0;     ///< total time under timed ops
    double idleNs = 0.0;     ///< total gap time between timed ops
    std::size_t idleWindows = 0;

    bool operator==(const QubitTimeline&) const = default;
};

/** Certified idle-decoherence budget of one observable. */
struct ObservableIdleBound
{
    std::uint32_t observable = 0;
    /** e_k over the idle-window error probabilities (capped at 1). */
    double idleBound = 0.0;
    /** The k the bound was evaluated at (ceil(distance / 2), or 1). */
    std::size_t weight = 0;

    bool operator==(const ObservableIdleBound&) const = default;
};

/** Full analyzer output for one circuit / timing model. */
struct ScheduleAnalysis
{
    double criticalPathNs = 0.0;   ///< makespan of the ASAP schedule
    std::size_t opsScheduled = 0;  ///< timed ops (gates, M, R, MR)
    double totalIdleNs = 0.0;      ///< sum of all idle windows
    std::vector<ScheduledOp> schedule;  ///< ascending by op index
    std::vector<QubitTimeline> qubits;  ///< ascending by qubit
    std::vector<IdleWindow> idleWindows; ///< by qubit, then start
    std::vector<ObservableIdleBound> observables; ///< ascending by id
    std::vector<LintFinding> hazards;   ///< the hazard pass's findings

    /** Largest certified idle bound over all observables. */
    double certifiedIdleBound() const;
    /** Number of Severity::Error hazards. */
    std::size_t hazardErrors() const;

    bool operator==(const ScheduleAnalysis&) const = default;
};

/** Knobs for analyzeSchedule. */
struct SchedOptions
{
    /**
     * Fault structure of the same circuit (lint::analyzeFaults): when
     * present, each observable's idle bound is evaluated at
     * k = ceil(certified distance / 2); a distance-less observable
     * (kInfiniteDistance) gets bound 0 under weight 0.  When absent,
     * every observable is bounded at k = 1.
     */
    const FaultAnalysis* faults = nullptr;
};

/**
 * Does @p code take time on its qubits?  Gates, M, R and MR do; noise
 * channels and annotations are instantaneous labels.
 */
bool isTimed(stab::OpCode code);

/**
 * Elementary symmetric polynomial e_k over @p probs, capped at 1 —
 * the shared budget kernel of the fault analyzer's union bound and the
 * schedule analyzer's idle bound (O(n * k) DP, index order, exactly
 * deterministic).  k = 0 returns the vacuous bound 1; k > n returns 0
 * without allocating.
 */
double elementarySymmetricBound(const std::vector<double>& probs,
                                std::size_t weight);

/**
 * Run the full analysis.  The timing model must cover every qubit of
 * the circuit (TimingModel::uniform/unit/withStorage size themselves
 * from the circuit).  Hazardous circuits still schedule — findings
 * describe what the timeline would do — but their latency and bounds
 * describe a schedule the hardware cannot execute; gate on
 * hazardErrors() == 0 before trusting them.
 */
ScheduleAnalysis analyzeSchedule(const stab::Circuit& circuit,
                                 const TimingModel& model,
                                 const SchedOptions& options = {});

/**
 * Convert an analysis into findings appended to @p report: hazards
 * keep their severity; critical path, total idle time, and
 * per-observable idle bounds are reported as infos.
 */
void scheduleFindings(const ScheduleAnalysis& analysis,
                      LintReport& report);

} // namespace sched
} // namespace lint
} // namespace hetarch
