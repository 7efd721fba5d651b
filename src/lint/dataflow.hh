/**
 * @file
 * Static qubit-dataflow and storage-residency analyzer
 * (`hetarch::lint::flow`): a whole-circuit abstract interpretation
 * over stab::Circuit + TimingModel that tracks where each qubit's
 * *state* lives — compute register or storage mode — from init
 * through gates, swaps, and measurement, using the ASAP op times of
 * the PR-6 schedule analyzer (schedule.hh).
 *
 * HetArch cells win by parking idle logical state in long-lived
 * storage and paying explicit SWAP movement to get it back, so the
 * interesting bugs are movement bugs.  Each qubit location holds an
 * abstract content in {Fresh, Data, Collapsed}: implicit |0> at
 * circuit start, Fresh after R/MR, Data once gates act on it,
 * Collapsed after M.  SWAPs exchange contents; a SWAP whose storage
 * side is involved is classified as a deposit (Data moves in), a
 * retrieval (Data moves out), or a movement bug:
 *
 *  flow-use-before-init [error]   a SWAP with a never-written storage
 *                                 mode retrieves vacuum, or a
 *                                 DETECTOR/OBSERVABLE consumes the
 *                                 measurement of state that was moved
 *                                 to storage and never retrieved
 *  flow-stale-storage   [warning] retrieval after the state sat in
 *                                 storage longer than the staleness
 *                                 threshold (default: the hosting
 *                                 device's T2)
 *  flow-measure-reuse   [warning] a computational gate consumes
 *                                 Collapsed content (tracked through
 *                                 swaps, unlike sched-reset-gap)
 *  flow-double-swap     [warning] deposit onto a storage mode already
 *                                 holding state; the previous content
 *                                 pops out into the compute register
 *  flow-orphan          [warning] a storage mode still holds Data at
 *                                 circuit end (state never retrieved)
 *  flow-capacity        [error]   live-Data occupancy of a storage
 *                                 instance exceeds its mode count (a
 *                                 dynamic refinement of the static
 *                                 sched-capacity assignment check)
 *
 * Beyond hazards the analyzer reports per-mode residency intervals
 * and a storage-pressure summary (peak live occupancy, qubit-ns in
 * storage, swap-chain movement cost) — the architecture-comparison
 * primitive dse::flowPressureTable ranks cells by — and a **certified
 * end-to-end error budget per observable**: the PR-4 gate-error union
 * bound and the PR-6 idle-decoherence bound compose into one
 * elementary-symmetric bound e_k over the union of DEM mechanism
 * probabilities and *live* idle-window probabilities (windows during
 * which the location actually holds state; vacuum modes do not
 * decohere anything), at k = ceil(certified distance / 2).  The
 * budget upper-bounds the Monte-Carlo logical error rate of
 * qec::runMemoryExperiment (pinned by tests/lint/flow_budget_test).
 * Observables fan out over exec::parallelFor with ordered reduction:
 * bit-identical at any worker count.
 *
 * Like analyzeSchedule, the analysis is a pure function of its inputs
 * and is not memoized; it runs its own schedule pass.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "lint/faults.hh"
#include "lint/lint.hh"
#include "lint/timing_model.hh"
#include "stab/circuit.hh"

namespace hetarch {
namespace lint {
namespace flow {

/** The dataflow analyzer prices movement with the sched assignment. */
using sched::TimingModel;

/** One stay of live state on a storage mode. */
struct ResidencyInterval
{
    std::uint32_t qubit = 0;     ///< storage-side qubit (the mode)
    std::uint32_t instance = 0;  ///< timing-model instance index
    double startNs = 0.0;        ///< deposit SWAP completes
    double endNs = 0.0;          ///< retrieval SWAP starts (or makespan)
    std::uint32_t depositOp = 0; ///< index into Circuit::ops()
    std::size_t retrieveOp = kNoOpIndex; ///< kNoOpIndex when orphaned
    bool orphaned = false;

    double durationNs() const { return endNs - startNs; }

    bool operator==(const ResidencyInterval&) const = default;
};

/** Storage-pressure summary of one storage instance. */
struct InstancePressure
{
    std::uint32_t instance = 0;
    std::string device;          ///< catalog name, for reports
    int modes = 0;
    std::size_t residencies = 0; ///< residency intervals hosted
    std::size_t peakOccupancy = 0; ///< max simultaneous live modes
    double storageQubitNs = 0.0; ///< total residency time (qubit-ns)

    bool operator==(const InstancePressure&) const = default;
};

/** Certified end-to-end error budget of one observable. */
struct ObservableBudget
{
    std::uint32_t observable = 0;
    /** The k of the bound (ceil(distance / 2), 1 without faults). */
    std::size_t weight = 0;
    /** e_k over the DEM mechanism probabilities (the PR-4 bound). */
    double gateBound = 0.0;
    /** e_k over the live idle-window probabilities alone. */
    double idleBound = 0.0;
    /** e_k over both families combined; >= max(gate, idle). */
    double budget = 0.0;

    bool operator==(const ObservableBudget&) const = default;
};

/** Full analyzer output for one circuit / timing model. */
struct FlowAnalysis
{
    std::size_t opsTracked = 0;   ///< timed ops interpreted
    std::size_t swapCount = 0;    ///< SWAP ops (movement events)
    double movementNs = 0.0;      ///< total wall time under SWAPs
    double criticalPathNs = 0.0;  ///< makespan (from the schedule)
    std::size_t peakStorageOccupancy = 0; ///< max over instances
    double storageQubitNs = 0.0;  ///< total residency time
    std::size_t liveIdleWindows = 0; ///< idle windows holding state
    double liveIdleNs = 0.0;      ///< their total duration
    std::vector<ResidencyInterval> residencies; ///< by deposit op
    std::vector<InstancePressure> instances; ///< storage, ascending
    std::vector<ObservableBudget> observables; ///< ascending by id
    std::vector<LintFinding> hazards; ///< program order, orphans last

    /** Number of Severity::Error hazards. */
    std::size_t hazardErrors() const;
    /** Largest certified budget over all observables. */
    double maxBudget() const;

    bool operator==(const FlowAnalysis&) const = default;
};

/** Knobs for analyzeFlow. */
struct FlowOptions
{
    /**
     * Fault structure of the same circuit (lint::analyzeFaults): when
     * present, each observable's budget is evaluated at
     * k = ceil(certified distance / 2); a distance-less observable
     * (kInfiniteDistance) gets budget 0 under weight 0.  When absent,
     * every observable is bounded at k = 1.
     */
    const FaultAnalysis* faults = nullptr;
    /**
     * Compose the gate-error union bound into the budget.  Requires
     * `faults`, whose mechanism probabilities it reads.  When false,
     * gateBound is 0 and budget equals idleBound.
     */
    bool gateBudget = false;
    /**
     * Staleness threshold for flow-stale-storage in ns; 0 means use
     * the hosting device's T2.
     */
    double staleAfterNs = 0.0;
};

/**
 * Run the full analysis.  The timing model must cover every qubit
 * (TimingModel::uniform/unit/withStorage size themselves from the
 * circuit).  Hazardous circuits still analyze — findings describe
 * what the dataflow would do — but budgets of a circuit whose
 * movement is broken describe a computation that does not happen;
 * gate on hazardErrors() == 0 before trusting them.
 */
FlowAnalysis analyzeFlow(const stab::Circuit& circuit,
                         const TimingModel& model,
                         const FlowOptions& options = {});

/**
 * Convert an analysis into findings appended to @p report: hazards
 * keep their severity; the movement/pressure summary and the
 * per-observable budgets are reported as infos.
 */
void flowFindings(const FlowAnalysis& analysis, LintReport& report);

} // namespace flow
} // namespace lint
} // namespace hetarch
