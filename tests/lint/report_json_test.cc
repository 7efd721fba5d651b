/**
 * @file
 * Golden tests for the three hetarch-lint report schemas: each writer
 * runs on a hand-built document and must reproduce the pinned bytes.
 * Together the documents cover null op, distance, min_distance and
 * retrieve_op, escaped strings, doubles that need all 17 significant
 * digits (0.1), empty arrays, and the empty document.
 */

#include <gtest/gtest.h>

#include <string>

#include "lint/report_json.hh"

namespace hetarch {
namespace lint {
namespace {

/** A hand-built lint document: every field set by hand, no analyzer. */
LintDocument
lintDocument()
{
    LintDocument doc;

    // Findings only; the message and path need escapes.
    FileReport plain;
    plain.path = "dir\\plain \"a\".circ";
    plain.report.add("record-ref", Severity::Error, 0,
                     "detector 0 references record 5");
    plain.report.add("liveness", Severity::Warning, 4,
                     "qubit 1 never measured");
    plain.report.add("prob-range", Severity::Info, kNoOpIndex,
                     "zero probability \"noise\"\n\ttrailing");
    doc.files.push_back(plain);

    // A fault analysis with one bounded and one unbounded observable.
    FileReport analyzed;
    analyzed.path = "builder:hand";
    analyzed.hasFaults = true;
    analyzed.faults.numDetectors = 8;
    analyzed.faults.numMechanisms = 12;
    analyzed.faults.numHyperedges = 1;
    analyzed.faults.deadDetectors = {3, 7};
    analyzed.faults.observables = {
        {.observable = 0,
         .distance = 3,
         .certificate = {{0, 5, 11}},
         .graphlike = true,
         .unionBound = 0.1,
         .unionBoundWeight = 2},
        {.observable = 1,
         .distance = kInfiniteDistance,
         .certificate = {},
         .graphlike = false,
         .unionBound = 0.0,
         .unionBoundWeight = 0},
    };
    doc.files.push_back(analyzed);

    // Only unbounded observables: min_distance is null too.
    FileReport unbounded;
    unbounded.path = "unbounded.circ";
    unbounded.hasFaults = true;
    unbounded.faults.numDetectors = 1;
    unbounded.faults.numMechanisms = 1;
    unbounded.faults.observables = {analyzed.faults.observables[1]};
    unbounded.faults.undetectableMechanisms = {0};
    doc.files.push_back(unbounded);
    return doc;
}

/** A hand-built sched document, plus a unit whose arrays are empty. */
sched::SchedDocument
schedDocument()
{
    sched::SchedFileReport file;
    file.path = "hazard.circ";
    file.device = "fixed-frequency-transmon+3d-multimode-resonator";
    auto& a = file.analysis;
    a.criticalPathNs = 5440.0;
    a.opsScheduled = 7;
    a.totalIdleNs = 0.1;
    a.qubits = {
        {.qubit = 0,
         .device = "fixed-frequency-transmon",
         .busyNs = 1140.0,
         .idleNs = 4300.0,
         .idleWindows = 2},
        {.qubit = 2,
         .device = "3d-multimode-resonator",
         .busyNs = 400.0,
         .idleNs = 0.0,
         .idleWindows = 0},
    };
    a.observables = {
        {.observable = 0, .idleBound = 6.25e-5, .weight = 1}};
    a.hazards = {
        {.pass = "sched-gateset",
         .severity = Severity::Error,
         .opIndex = 3,
         .message = "X on storage qubit 2"},
        {.pass = "sched-reset-gap",
         .severity = Severity::Warning,
         .opIndex = kNoOpIndex,
         .message = "reset \"gap\""},
    };

    sched::SchedFileReport empty;
    empty.path = "empty.circ";
    empty.device = "unit";
    return {{file, empty}};
}

/** A hand-built flow document, plus a unit whose arrays are empty. */
flow::FlowDocument
flowDocument()
{
    flow::FlowFileReport file;
    file.path = "builder:parked";
    file.device = "fixed-frequency-transmon+3d-multimode-resonator";
    auto& a = file.analysis;
    a.opsTracked = 9;
    a.swapCount = 3;
    a.movementNs = 1200.0;
    a.criticalPathNs = 3540.0;
    a.peakStorageOccupancy = 1;
    a.storageQubitNs = 1600.0;
    a.liveIdleWindows = 3;
    a.liveIdleNs = 0.1;
    a.residencies = {
        {.qubit = 1,
         .instance = 1,
         .startNs = 540.0,
         .endNs = 1740.0,
         .depositOp = 2,
         .retrieveOp = 4,
         .orphaned = false},
        {.qubit = 1,
         .instance = 1,
         .startNs = 2740.0,
         .endNs = 3140.0,
         .depositOp = 6,
         .retrieveOp = kNoOpIndex,
         .orphaned = true},
    };
    a.instances = {
        {.instance = 1,
         .device = "3d-multimode-resonator",
         .modes = 10,
         .residencies = 2,
         .peakOccupancy = 1,
         .storageQubitNs = 1600.0},
    };
    a.observables = {
        {.observable = 0,
         .weight = 2,
         .gateBound = 0.1,
         .idleBound = 6.25e-5,
         .budget = 0.2},
    };
    a.hazards = {
        {.pass = "flow-orphan",
         .severity = Severity::Warning,
         .opIndex = 6,
         .message = "qubit 1 parked and never retrieved"},
    };

    flow::FlowFileReport empty;
    empty.path = "empty.circ";
    empty.device = "unit";
    return {{file, empty}};
}

TEST(LintJson, GoldenShapeIsStable)
{
    const std::string expected =
        "{\n"
        R"(  "files": [)" "\n"
        R"(    {"clean": false, "errors": 1, "faults": null, )"
        R"("findings": [{"message": "detector 0 references record 5", )"
        R"("op": 0, "pass": "record-ref", "severity": "error"}, )"
        R"({"message": "qubit 1 never measured", "op": 4, )"
        R"("pass": "liveness", "severity": "warning"}, )"
        R"({"message": "zero probability \"noise\"\n\ttrailing", )"
        R"("op": null, "pass": "prob-range", "severity": "info"}], )"
        R"("infos": 1, "path": "dir\\plain \"a\".circ", )"
        R"("strict_clean": false, "warnings": 1},)" "\n"
        R"(    {"clean": true, "errors": 0, )"
        R"("faults": {"dead_detectors": [3, 7], )"
        R"("hyperedge_mechanisms": 1, "min_distance": 3, )"
        R"("num_detectors": 8, "num_mechanisms": 12, )"
        R"("observables": [{"certificate": [0, 5, 11], "distance": 3, )"
        R"("graphlike": true, "observable": 0, )"
        R"("union_bound": 0.10000000000000001, )"
        R"("union_bound_weight": 2}, {"certificate": [], )"
        R"("distance": null, "graphlike": false, "observable": 1, )"
        R"("union_bound": 0, "union_bound_weight": 0}], )"
        R"("undetectable_mechanisms": []}, "findings": [], "infos": 0, )"
        R"("path": "builder:hand", "strict_clean": true, "warnings": 0},)" "\n"
        R"(    {"clean": true, "errors": 0, )"
        R"("faults": {"dead_detectors": [], "hyperedge_mechanisms": 0, )"
        R"("min_distance": null, "num_detectors": 1, )"
        R"("num_mechanisms": 1, "observables": [{"certificate": [], )"
        R"("distance": null, "graphlike": false, "observable": 1, )"
        R"("union_bound": 0, "union_bound_weight": 0}], )"
        R"("undetectable_mechanisms": [0]}, "findings": [], "infos": 0, )"
        R"("path": "unbounded.circ", "strict_clean": true, )"
        R"("warnings": 0})" "\n"
        R"(  ],)" "\n"
        R"(  "schema": "hetarch-lint-v1")" "\n"
        "}\n";
    EXPECT_EQ(toLintJson(lintDocument()), expected);
}

TEST(LintJson, DerivedCountsMatchFindings)
{
    // Warnings alone keep a unit clean but not strict_clean.
    LintDocument doc;
    FileReport file;
    file.path = "warned.circ";
    file.report.add("liveness", Severity::Warning, 1, "w1");
    file.report.add("liveness", Severity::Warning, 2, "w2");
    doc.files.push_back(file);
    const auto text = toLintJson(doc);
    EXPECT_NE(text.find(R"({"clean": true, "errors": 0, )"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find(R"("infos": 0, "path": "warned.circ", )"
                        R"("strict_clean": false, "warnings": 2})"),
              std::string::npos)
        << text;
}

TEST(LintJson, EmptyDocument)
{
    EXPECT_EQ(toLintJson({}),
              "{\n"
              R"(  "files": [],)" "\n"
              R"(  "schema": "hetarch-lint-v1")" "\n"
              "}\n");
}

TEST(SchedJson, GoldenShapeIsStable)
{
    const std::string expected =
        "{\n"
        R"(  "files": [)" "\n"
        R"(    {"critical_path_ns": 5440, )"
        R"("device": "fixed-frequency-transmon+3d-multimode-resonator", )"
        R"("hazards": [{"message": "X on storage qubit 2", "op": 3, )"
        R"("pass": "sched-gateset", "severity": "error"}, )"
        R"({"message": "reset \"gap\"", "op": null, )"
        R"("pass": "sched-reset-gap", "severity": "warning"}], )"
        R"("observables": [{"idle_bound": 6.2500000000000001e-05, )"
        R"("observable": 0, "weight": 1}], "path": "hazard.circ", )"
        R"("qubits": [{"busy_ns": 1140, )"
        R"("device": "fixed-frequency-transmon", "idle_ns": 4300, )"
        R"("idle_windows": 2, "qubit": 0}, {"busy_ns": 400, )"
        R"("device": "3d-multimode-resonator", "idle_ns": 0, )"
        R"("idle_windows": 0, "qubit": 2}], "timed_ops": 7, )"
        R"("total_idle_ns": 0.10000000000000001},)" "\n"
        R"(    {"critical_path_ns": 0, "device": "unit", "hazards": [], )"
        R"("observables": [], "path": "empty.circ", "qubits": [], )"
        R"("timed_ops": 0, "total_idle_ns": 0})" "\n"
        R"(  ],)" "\n"
        R"(  "schema": "hetarch-sched-v1")" "\n"
        "}\n";
    EXPECT_EQ(sched::toSchedJson(schedDocument()), expected);
}

TEST(SchedJson, EmptyDocument)
{
    EXPECT_EQ(sched::toSchedJson({}),
              "{\n"
              R"(  "files": [],)" "\n"
              R"(  "schema": "hetarch-sched-v1")" "\n"
              "}\n");
}

TEST(FlowJson, GoldenShapeIsStable)
{
    const std::string expected =
        "{\n"
        R"(  "files": [)" "\n"
        R"(    {"critical_path_ns": 3540, )"
        R"("device": "fixed-frequency-transmon+3d-multimode-resonator", )"
        R"("hazards": [{"message": "qubit 1 parked and never retrieved", )"
        R"("op": 6, "pass": "flow-orphan", "severity": "warning"}], )"
        R"("instances": [{"device": "3d-multimode-resonator", )"
        R"("instance": 1, "modes": 10, "peak_occupancy": 1, )"
        R"("residencies": 2, "storage_qubit_ns": 1600}], )"
        R"("live_idle_ns": 0.10000000000000001, "live_idle_windows": 3, )"
        R"("movement_ns": 1200, )"
        R"("observables": [{"budget": 0.20000000000000001, )"
        R"("gate_bound": 0.10000000000000001, )"
        R"("idle_bound": 6.2500000000000001e-05, "observable": 0, )"
        R"("weight": 2}], "path": "builder:parked", "peak_storage": 1, )"
        R"("residencies": [{"deposit_op": 2, "end_ns": 1740, )"
        R"("instance": 1, "orphaned": false, "qubit": 1, )"
        R"("retrieve_op": 4, "start_ns": 540}, {"deposit_op": 6, )"
        R"("end_ns": 3140, "instance": 1, "orphaned": true, "qubit": 1, )"
        R"("retrieve_op": null, "start_ns": 2740}], )"
        R"("storage_qubit_ns": 1600, "swaps": 3, "timed_ops": 9},)" "\n"
        R"(    {"critical_path_ns": 0, "device": "unit", "hazards": [], )"
        R"("instances": [], "live_idle_ns": 0, "live_idle_windows": 0, )"
        R"("movement_ns": 0, "observables": [], "path": "empty.circ", )"
        R"("peak_storage": 0, "residencies": [], "storage_qubit_ns": 0, )"
        R"("swaps": 0, "timed_ops": 0})" "\n"
        R"(  ],)" "\n"
        R"(  "schema": "hetarch-flow-v1")" "\n"
        "}\n";
    EXPECT_EQ(flow::toFlowJson(flowDocument()), expected);
}

TEST(FlowJson, EmptyDocument)
{
    EXPECT_EQ(flow::toFlowJson({}),
              "{\n"
              R"(  "files": [],)" "\n"
              R"(  "schema": "hetarch-flow-v1")" "\n"
              "}\n");
}

} // namespace
} // namespace lint
} // namespace hetarch
