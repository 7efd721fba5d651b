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

#include "module/module.hh"

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

} // namespace dse
} // namespace hetarch
