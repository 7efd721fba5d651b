/**
 * @file
 * Design-space-exploration experiment runners: one function per table
 * or figure of the paper's evaluation (Section 4).  The benchmark
 * harnesses print these; the examples and tests reuse them at reduced
 * shot counts.
 *
 * Every function returns a TextTable whose rows mirror the data series
 * of the corresponding paper artifact.  A runner materializes its grid
 * as a vector of points, evaluates them with exec::parallelFor into
 * per-point slots, and emits rows in grid order, so tables are
 * bit-identical at any worker count.
 */

#pragma once

#include <cstdint>

#include "core/table.hh"

namespace hetarch {
namespace dse {

/** Scaling knobs so tests can run the same experiments quickly. */
struct RunScale
{
    double shotScale = 1.0;  ///< multiplies Monte-Carlo shot counts
    std::uint64_t seed = 2026;
};

/** Table 1: the superconducting device catalog. */
TextTable table1Devices();

/** Table 2: standard cells, DRC status, and characterized operations. */
TextTable table2Cells();

/**
 * Schedule-aware architecture ranking: surface-code memory circuits
 * (d = 3, 5, 7) costed on each Table 1 compute device by the static
 * schedule analyzer (lint::sched::analyzeSchedule, fed the cached
 * fault analysis so the idle bound is evaluated at k = ceil(d / 2)) —
 * certified critical-path latency, idle time, idle-decoherence bound,
 * and the score latency * (1 + idle bound), which sorts hazardous
 * schedules last — with no Monte-Carlo sampling at all.
 */
TextTable scheduleBurdenTable();

/**
 * Dataflow-aware architecture ranking: every registry builder costed
 * on the homogeneous transmon assignment by the static dataflow
 * analyzer (lint::flow::analyzeFlow: swaps, peak storage occupancy,
 * certified end-to-end error budget), followed by a heterogeneous
 * comparison of a parked repetition cell against each Table 1 storage
 * device.  Like scheduleBurdenTable, no Monte-Carlo sampling at all.
 */
TextTable flowPressureTable();

/**
 * Fig. 3: best output-register EP infidelity over 100 us, heterogeneous
 * (Ts = 12.5 ms) vs homogeneous (Ts = Tc = 0.5 ms).
 */
TextTable fig3DistillationTrace(const RunScale& scale = {});

/**
 * Fig. 4: distilled-EP rate (F >= 0.995, pairs/ms) vs EP generation
 * rate for Ts in {0.5, 1, 2.5, 5} ms plus the homogeneous baseline.
 */
TextTable fig4DistillationRate(const RunScale& scale = {});

/**
 * Fig. 6: d = 13 surface-code logical error per cycle vs the factor
 * alpha scaling either the data or the ancilla coherence (base 0.1 ms).
 */
TextTable fig6SurfaceAlpha(const RunScale& scale = {});

/**
 * Fig. 7: surface-code logical error per cycle for d in {5..18} as a
 * function of the ratio T_CD / T_CA.
 */
TextTable fig7SurfaceRatio(const RunScale& scale = {});

/**
 * Fig. 9: logical error rate of the five paper codes on the UEC module
 * vs storage coherence Ts in [0.5, 50] ms.
 */
TextTable fig9UecTsSweep(const RunScale& scale = {});

/**
 * Table 3: pseudothreshold, heterogeneous (Ts = 50 ms) and homogeneous
 * logical error rates, and the heterogeneous reduction factor.
 */
TextTable table3UecComparison(const RunScale& scale = {});

/**
 * Fig. 12: CT-state logical error probability vs Ts for the paper's
 * three code pairs at 1000 kHz EP generation.
 */
TextTable fig12CtTsSweep(const RunScale& scale = {});

/**
 * Table 4: CT logical error probabilities for all code pairs,
 * heterogeneous and homogeneous.
 */
TextTable table4CtMatrix(const RunScale& scale = {});

} // namespace dse
} // namespace hetarch
