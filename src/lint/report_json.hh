/**
 * @file
 * The three static-analyzer reports of `hetarch-lint --format=json`:
 * hetarch-lint-v1 (default), hetarch-sched-v1 (--timing) and
 * hetarch-flow-v1 (--flow).
 *
 * All three share one dialect.  Keys are name-sorted inside every
 * object, with "schema" last at the top level; unsigned sentinels (no
 * op, unbounded distance, no retrieval) render as null; doubles carry
 * 17 significant digits (%.17g, so 0.1 prints as 0.10000000000000001);
 * strings use core/strict_json's four-escape repertoire.  The reports
 * are written only: scripts and CI read them with Python, and
 * tests/lint/report_json_test.cc pins each schema byte for byte.
 *
 * Every document is {"files": [<file>, ...], "schema": "<name>"}, one
 * file object per linted unit (a path or builder:<name>).
 *
 * hetarch-lint-v1 file:
 *   { "clean": <bool>,              // no errors
 *     "errors": <u64>,
 *     "faults": null | {            // present with --distance
 *       "dead_detectors": [<u64>, ...],
 *       "hyperedge_mechanisms": <u64>,
 *       "min_distance": null | <u64>,
 *       "num_detectors": <u64>, "num_mechanisms": <u64>,
 *       "observables": [
 *         { "certificate": [<u64>, ...], "distance": null | <u64>,
 *           "graphlike": <bool>, "observable": <u64>,
 *           "union_bound": <double>, "union_bound_weight": <u64> },
 *         ... ],
 *       "undetectable_mechanisms": [<u64>, ...] },
 *     "findings": [<finding>, ...],
 *     "infos": <u64>, "path": <string>,
 *     "strict_clean": <bool>,       // no errors and no warnings
 *     "warnings": <u64> }
 *
 * where <finding> is
 *   { "message": <string>, "op": null | <u64>, "pass": <string>,
 *     "severity": "info" | "warning" | "error" }
 *
 * hetarch-sched-v1 file (the per-op schedule and the individual idle
 * windows stay in-process):
 *   { "critical_path_ns": <double>, "device": <string>,
 *     "hazards": [<finding>, ...],
 *     "observables": [{ "idle_bound": <double>, "observable": <u64>,
 *                       "weight": <u64> }, ...],
 *     "path": <string>,
 *     "qubits": [{ "busy_ns": <double>, "device": <string>,
 *                  "idle_ns": <double>, "idle_windows": <u64>,
 *                  "qubit": <u64> }, ...],
 *     "timed_ops": <u64>, "total_idle_ns": <double> }
 *
 * hetarch-flow-v1 file (the whole FlowAnalysis):
 *   { "critical_path_ns": <double>, "device": <string>,
 *     "hazards": [<finding>, ...],
 *     "instances": [{ "device": <string>, "instance": <u64>,
 *                     "modes": <u64>, "peak_occupancy": <u64>,
 *                     "residencies": <u64>,
 *                     "storage_qubit_ns": <double> }, ...],
 *     "live_idle_ns": <double>, "live_idle_windows": <u64>,
 *     "movement_ns": <double>,
 *     "observables": [{ "budget": <double>, "gate_bound": <double>,
 *                       "idle_bound": <double>, "observable": <u64>,
 *                       "weight": <u64> }, ...],
 *     "path": <string>, "peak_storage": <u64>,
 *     "residencies": [{ "deposit_op": <u64>, "end_ns": <double>,
 *                       "instance": <u64>, "orphaned": <bool>,
 *                       "qubit": <u64>, "retrieve_op": null | <u64>,
 *                       "start_ns": <double> }, ...],
 *     "storage_qubit_ns": <double>, "swaps": <u64>,
 *     "timed_ops": <u64> }
 */

#pragma once

#include <string>
#include <vector>

#include "lint/dataflow.hh"
#include "lint/faults.hh"
#include "lint/lint.hh"
#include "lint/schedule.hh"

namespace hetarch {
namespace lint {

/** One linted unit (a file or a named builder circuit). */
struct FileReport
{
    std::string path;
    LintReport report;
    /** Whether the fault analyzer ran (faults is meaningful). */
    bool hasFaults = false;
    FaultAnalysis faults;
};

/** A whole hetarch-lint run. */
struct LintDocument
{
    std::vector<FileReport> files;
};

/** Render @p doc as a hetarch-lint-v1 document. */
std::string toLintJson(const LintDocument& doc);

namespace sched {

/** One analyzed unit of a sched document. */
struct SchedFileReport
{
    std::string path;    ///< file path or builder:<name> label
    std::string device;  ///< TimingModel::name the unit was costed with
    ScheduleAnalysis analysis;
};

/** A full tool invocation's worth of schedule reports. */
struct SchedDocument
{
    std::vector<SchedFileReport> files;
};

/** Render @p doc as a hetarch-sched-v1 document. */
std::string toSchedJson(const SchedDocument& doc);

} // namespace sched

namespace flow {

/** One analyzed unit of a flow document. */
struct FlowFileReport
{
    std::string path;    ///< file path or builder:<name> label
    std::string device;  ///< TimingModel::name the unit was costed with
    FlowAnalysis analysis;
};

/** A full tool invocation's worth of dataflow reports. */
struct FlowDocument
{
    std::vector<FlowFileReport> files;
};

/** Render @p doc as a hetarch-flow-v1 document. */
std::string toFlowJson(const FlowDocument& doc);

} // namespace flow
} // namespace lint
} // namespace hetarch
