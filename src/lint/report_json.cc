#include "lint/report_json.hh"

#include <sstream>

#include "core/strict_json.hh"

namespace hetarch {
namespace lint {

namespace {

namespace cj = core::json;

const char*
boolName(bool b)
{
    return b ? "true" : "false";
}

/** "[x, y, ...]", with @p write_item rendering each element. */
template <typename T, typename WriteItem>
void
writeArray(std::ostream& os, const std::vector<T>& xs,
           WriteItem&& write_item)
{
    os << '[';
    for (std::size_t i = 0; i < xs.size(); ++i) {
        if (i)
            os << ", ";
        write_item(xs[i]);
    }
    os << ']';
}

void
writeIndexArray(std::ostream& os, const std::vector<std::uint32_t>& xs)
{
    writeArray(os, xs, [&os](std::uint32_t x) { os << x; });
}

/** The finding objects of all three schemas ("findings"/"hazards"). */
void
writeFindings(std::ostream& os, const std::vector<LintFinding>& findings)
{
    writeArray(os, findings, [&os](const LintFinding& f) {
        os << "{\"message\": ";
        cj::writeString(os, f.message);
        os << ", \"op\": ";
        cj::writeOrNull(os, f.opIndex, kNoOpIndex);
        os << ", \"pass\": ";
        cj::writeString(os, f.pass);
        os << ", \"severity\": \"" << severityName(f.severity) << "\"}";
    });
}

/**
 * The shared envelope {"files": [...], "schema": @p schema}, one file
 * object per line, with @p write_file rendering each.
 */
template <typename File, typename WriteFile>
std::string
writeDocument(const std::vector<File>& files, const char* schema,
              WriteFile&& write_file)
{
    std::ostringstream os;
    os << "{\n  \"files\": [";
    for (std::size_t i = 0; i < files.size(); ++i) {
        os << (i ? ",\n    " : "\n    ");
        write_file(os, files[i]);
    }
    os << (files.empty() ? "" : "\n  ") << "],\n  \"schema\": \""
       << schema << "\"\n}\n";
    return os.str();
}

void
writeFaults(std::ostream& os, const FaultAnalysis& fa)
{
    os << "{\"dead_detectors\": ";
    writeIndexArray(os, fa.deadDetectors);
    os << ", \"hyperedge_mechanisms\": " << fa.numHyperedges
       << ", \"min_distance\": ";
    cj::writeOrNull(os, fa.minDistance(), kInfiniteDistance);
    os << ", \"num_detectors\": " << fa.numDetectors
       << ", \"num_mechanisms\": " << fa.numMechanisms
       << ", \"observables\": ";
    writeArray(os, fa.observables, [&os](const ObservableFaults& of) {
        os << "{\"certificate\": ";
        writeIndexArray(os, of.certificate.mechanisms);
        os << ", \"distance\": ";
        cj::writeOrNull(os, of.distance, kInfiniteDistance);
        os << ", \"graphlike\": " << boolName(of.graphlike)
           << ", \"observable\": " << of.observable
           << ", \"union_bound\": ";
        cj::writeDouble(os, of.unionBound);
        os << ", \"union_bound_weight\": " << of.unionBoundWeight
           << '}';
    });
    os << ", \"undetectable_mechanisms\": ";
    writeIndexArray(os, fa.undetectableMechanisms);
    os << '}';
}

} // namespace

std::string
toLintJson(const LintDocument& doc)
{
    return writeDocument(doc.files, "hetarch-lint-v1",
                         [](std::ostream& os, const FileReport& file) {
        const auto errors = file.report.errorCount();
        const auto warnings = file.report.warningCount();
        const auto infos =
            file.report.findings.size() - errors - warnings;
        os << "{\"clean\": " << boolName(errors == 0)
           << ", \"errors\": " << errors << ", \"faults\": ";
        if (file.hasFaults)
            writeFaults(os, file.faults);
        else
            os << "null";
        os << ", \"findings\": ";
        writeFindings(os, file.report.findings);
        os << ", \"infos\": " << infos << ", \"path\": ";
        cj::writeString(os, file.path);
        os << ", \"strict_clean\": " << boolName(errors + warnings == 0)
           << ", \"warnings\": " << warnings << '}';
    });
}

namespace sched {

std::string
toSchedJson(const SchedDocument& doc)
{
    return writeDocument(doc.files, "hetarch-sched-v1",
                         [](std::ostream& os,
                            const SchedFileReport& file) {
        const auto& a = file.analysis;
        os << "{\"critical_path_ns\": ";
        cj::writeDouble(os, a.criticalPathNs);
        os << ", \"device\": ";
        cj::writeString(os, file.device);
        os << ", \"hazards\": ";
        writeFindings(os, a.hazards);
        os << ", \"observables\": ";
        writeArray(os, a.observables,
                   [&os](const ObservableIdleBound& b) {
            os << "{\"idle_bound\": ";
            cj::writeDouble(os, b.idleBound);
            os << ", \"observable\": " << b.observable
               << ", \"weight\": " << b.weight << '}';
        });
        os << ", \"path\": ";
        cj::writeString(os, file.path);
        os << ", \"qubits\": ";
        writeArray(os, a.qubits, [&os](const QubitTimeline& tl) {
            os << "{\"busy_ns\": ";
            cj::writeDouble(os, tl.busyNs);
            os << ", \"device\": ";
            cj::writeString(os, tl.device);
            os << ", \"idle_ns\": ";
            cj::writeDouble(os, tl.idleNs);
            os << ", \"idle_windows\": " << tl.idleWindows
               << ", \"qubit\": " << tl.qubit << '}';
        });
        os << ", \"timed_ops\": " << a.opsScheduled
           << ", \"total_idle_ns\": ";
        cj::writeDouble(os, a.totalIdleNs);
        os << '}';
    });
}

} // namespace sched

namespace flow {

std::string
toFlowJson(const FlowDocument& doc)
{
    return writeDocument(doc.files, "hetarch-flow-v1",
                         [](std::ostream& os, const FlowFileReport& file) {
        const auto& a = file.analysis;
        os << "{\"critical_path_ns\": ";
        cj::writeDouble(os, a.criticalPathNs);
        os << ", \"device\": ";
        cj::writeString(os, file.device);
        os << ", \"hazards\": ";
        writeFindings(os, a.hazards);
        os << ", \"instances\": ";
        writeArray(os, a.instances, [&os](const InstancePressure& p) {
            os << "{\"device\": ";
            cj::writeString(os, p.device);
            os << ", \"instance\": " << p.instance
               << ", \"modes\": " << p.modes
               << ", \"peak_occupancy\": " << p.peakOccupancy
               << ", \"residencies\": " << p.residencies
               << ", \"storage_qubit_ns\": ";
            cj::writeDouble(os, p.storageQubitNs);
            os << '}';
        });
        os << ", \"live_idle_ns\": ";
        cj::writeDouble(os, a.liveIdleNs);
        os << ", \"live_idle_windows\": " << a.liveIdleWindows
           << ", \"movement_ns\": ";
        cj::writeDouble(os, a.movementNs);
        os << ", \"observables\": ";
        writeArray(os, a.observables, [&os](const ObservableBudget& b) {
            os << "{\"budget\": ";
            cj::writeDouble(os, b.budget);
            os << ", \"gate_bound\": ";
            cj::writeDouble(os, b.gateBound);
            os << ", \"idle_bound\": ";
            cj::writeDouble(os, b.idleBound);
            os << ", \"observable\": " << b.observable
               << ", \"weight\": " << b.weight << '}';
        });
        os << ", \"path\": ";
        cj::writeString(os, file.path);
        os << ", \"peak_storage\": " << a.peakStorageOccupancy
           << ", \"residencies\": ";
        writeArray(os, a.residencies, [&os](const ResidencyInterval& r) {
            os << "{\"deposit_op\": " << r.depositOp << ", \"end_ns\": ";
            cj::writeDouble(os, r.endNs);
            os << ", \"instance\": " << r.instance
               << ", \"orphaned\": " << boolName(r.orphaned)
               << ", \"qubit\": " << r.qubit << ", \"retrieve_op\": ";
            cj::writeOrNull(os, r.retrieveOp, kNoOpIndex);
            os << ", \"start_ns\": ";
            cj::writeDouble(os, r.startNs);
            os << '}';
        });
        os << ", \"storage_qubit_ns\": ";
        cj::writeDouble(os, a.storageQubitNs);
        os << ", \"swaps\": " << a.swapCount
           << ", \"timed_ops\": " << a.opsTracked << '}';
    });
}

} // namespace flow
} // namespace lint
} // namespace hetarch
