/**
 * @file
 * Simulation-burden accounting for the hierarchical methodology.
 *
 * The paper claims the hierarchical cell/module decomposition reduces
 * the simulation burden by a factor of 10^4 or more.  These helpers
 * make that claim quantitative for a given module: joint density-
 * matrix simulation of n qubits costs O(4^n) state and O(8^n) work per
 * operation, whereas hierarchical characterization only ever simulates
 * each cell's few qubits exactly and composes the rest analytically.
 */

#pragma once

#include <cstddef>

#include "lint/timing_model.hh"
#include "module/module.hh"
#include "stab/circuit.hh"

namespace hetarch {
namespace dse {

/** Cost summary for simulating a module. */
struct BurdenEstimate
{
    std::size_t totalQubits = 0;      ///< qubits in the whole module
    std::size_t largestCellQubits = 0; ///< qubits in the biggest cell
    double jointCostFlops = 0.0;      ///< one joint density-matrix op
    double hierarchicalCostFlops = 0.0; ///< sum of per-cell op costs
    /** jointCost / hierarchicalCost. */
    double reductionFactor() const
    {
        return hierarchicalCostFlops > 0.0
                   ? jointCostFlops / hierarchicalCostFlops
                   : 0.0;
    }
};

/**
 * Estimate the cost of characterizing @p mod jointly vs hierarchically
 * (one density-matrix operation each; 8^n flops per n-qubit op).
 */
BurdenEstimate estimateBurden(const module::Module& mod);

/**
 * Schedule-aware burden of one circuit on one timing assignment: the
 * static analyzer's certified latency and idle-decoherence budget
 * (lint/schedule.hh), fed by the cached fault structure so the bound
 * is evaluated at k = ceil(distance / 2) per observable.  This is the
 * term that lets design-space sweeps rank architectures by certified
 * time cost without simulating a single shot.
 */
struct ScheduleBurden
{
    double criticalPathNs = 0.0; ///< makespan of the ASAP schedule
    double totalIdleNs = 0.0;    ///< decohering wait time, summed
    double idleBound = 0.0;      ///< worst certified idle bound
    std::size_t hazardErrors = 0; ///< schedule defects (0 = runnable)

    /**
     * Rank key: latency inflated by the idle-decoherence budget.  A
     * hazardous schedule cannot run at all, so it sorts last.
     */
    double score() const
    {
        if (hazardErrors > 0)
            return 1e300;
        return criticalPathNs * (1.0 + idleBound);
    }
};

/**
 * Analyze @p circuit under @p model (the fault analysis is cached in
 * qec::DecoderCache; the circuit must have deterministic detectors).
 */
ScheduleBurden estimateScheduleBurden(const stab::Circuit& circuit,
                                      const lint::sched::TimingModel& model);

/**
 * Dataflow-aware pressure of one circuit on one timing assignment: the
 * qubit-movement analyzer's residency/occupancy summary plus the
 * certified end-to-end error budget (lint/dataflow.hh) — the gate
 * union bound at k = ceil(distance / 2) composed with the live idle
 * decoherence actually incurred by the ASAP schedule.  Where
 * ScheduleBurden ranks by time, FlowPressure ranks by storage traffic
 * and by the certified budget the movement costs.
 */
struct FlowPressure
{
    std::size_t swaps = 0;        ///< compute<->storage exchanges
    double movementNs = 0.0;      ///< total time spent in SWAPs
    std::size_t peakStorage = 0;  ///< max concurrently parked states
    double storageQubitNs = 0.0;  ///< integral of parked states over time
    std::size_t hazardErrors = 0; ///< dataflow defects (0 = runnable)
    double budget = 0.0;          ///< worst certified observable budget

    /**
     * Rank key: the certified budget, with hazardous dataflow sorting
     * last (a circuit that reads vacuum has no meaningful budget).
     */
    double score() const
    {
        if (hazardErrors > 0)
            return 1e300;
        return budget;
    }
};

/**
 * Analyze @p circuit under @p model (the fault analysis is cached in
 * qec::DecoderCache; the circuit must have deterministic detectors).
 */
FlowPressure estimateFlowPressure(const stab::Circuit& circuit,
                                  const lint::sched::TimingModel& model);

} // namespace dse
} // namespace hetarch
