/**
 * @file
 * hetarch-lint: static verification for .circ files and the repo's
 * circuit builders.  Every unit runs lint's full pass list, the exact
 * determinism check included; --distance analyzes only a unit with no
 * errors.
 *
 * Usage: hetarch-lint [options] [FILE...]
 *
 *   --strict            fail (exit 2) on warnings, not just errors
 *   --distance          run the fault-path analyzer: certified circuit
 *                       distance, detector coverage, union bounds
 *   --max-weight=K      evaluate the union bound at weight K instead
 *                       of ceil(distance / 2)
 *   --expect-distance=D fail (exit 2) unless every analyzed unit has
 *                       certified distance exactly D (implies checks
 *                       of --distance output; requires --distance)
 *   --format=text|json  report format; json emits the stable
 *                       hetarch-lint-v1 document on stdout
 *   --builders[=a,b]    lint builder-generated circuits (all, or the
 *                       named subset); combines with FILE arguments
 *   --list-builders     print known builder names and exit
 *   --drop-detector=N   drop the N-th DETECTOR op before analysis (a
 *                       perturbation knob for the CI certification
 *                       gate's negative self-check)
 *   --timing            run the static schedule analyzer: certified
 *                       critical-path latency, per-qubit idle windows,
 *                       idle-decoherence bounds, and timing hazards
 *                       (lint/schedule.hh); hazards join the findings
 *   --device=NAME       Table 1 catalog entry (or "unit") every qubit
 *                       is costed with [fixed-frequency-transmon]
 *   --storage-device=N  catalog entry for the shared storage instance
 *                       [3d-multimode-resonator]
 *   --storage-qubits=Q, comma-separated qubits hosted on ONE shared
 *                       storage instance (heterogeneous register)
 *   --expect-latency=NS fail (exit 2) unless every analyzed unit's
 *                       critical path is NS (relative tolerance 1e-6;
 *                       requires --timing)
 *   --scale-durations=X multiply every device duration by X (the
 *                       timing gate's negative self-check knob)
 *   --flow              run the qubit-dataflow / storage-residency
 *                       analyzer (lint/dataflow.hh): movement hazards,
 *                       residency pressure, and certified end-to-end
 *                       error budgets; hazards join the findings.  The
 *                       timing model comes from the same --device /
 *                       --storage-device / --storage-qubits /
 *                       --scale-durations flags as --timing; with
 *                       --distance on a clean unit the budgets compose
 *                       the gate-error union bound at the certified
 *                       weight
 *   --stale-after=NS    staleness threshold for flow-stale-storage
 *                       (default: the hosting device's T2; requires
 *                       --flow)
 *   --expect-peak-storage=N
 *                       fail (exit 2) unless every analyzed unit's
 *                       peak storage occupancy is exactly N (the flow
 *                       gate's negative self-check knob; requires
 *                       --flow)
 *   --metrics-out=FILE  write an obs metrics snapshot on exit
 *
 * With --timing --format=json the stable hetarch-sched-v1 document is
 * emitted instead of hetarch-lint-v1; with --flow --format=json the
 * hetarch-flow-v1 document takes precedence over both.
 *
 * Exit status (the contract scripts/check_lint_clean.sh pins):
 *   0  every unit is clean (no errors; with --strict, no warnings)
 *      and every --expect-distance / --expect-latency /
 *      --expect-peak-storage check passed
 *   1  usage error, unreadable file, or parse failure
 *   2  lint findings above the acceptance threshold, or a certified
 *      distance/latency/peak-storage differing from the expectation
 */

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/logging.hh"
#include "devices/device.hh"
#include "dse/builder_registry.hh"
#include "lint/dataflow.hh"
#include "lint/faults.hh"
#include "lint/lint.hh"
#include "lint/report_json.hh"
#include "lint/schedule.hh"
#include "obs/json.hh"
#include "obs/obs.hh"
#include "qec/decoder_cache.hh"
#include "stab/circuit_io.hh"

namespace {

using namespace hetarch;

obs::Counter& cFiles = obs::counter("lint.files");
obs::Counter& cErrors = obs::counter("lint.errors");
obs::Counter& cWarnings = obs::counter("lint.warnings");

// The builder table lives in dse::builderRegistry() so the lint tool
// and the job service resolve names through one shared table.
using dse::builderRegistry;

int
usage()
{
    std::cerr
        << "usage: hetarch-lint [--strict] [--distance] [--max-weight=K]\n"
           "                    [--expect-distance=D] "
           "[--format=text|json]\n"
           "                    [--timing] [--device=NAME]\n"
           "                    [--storage-device=NAME] "
           "[--storage-qubits=Q,...]\n"
           "                    [--expect-latency=NS] "
           "[--scale-durations=X]\n"
           "                    [--flow] [--stale-after=NS]\n"
           "                    [--expect-peak-storage=N]\n"
           "                    [--builders[=name,...]] "
           "[--list-builders]\n"
           "                    [--drop-detector=N] "
           "[--metrics-out=FILE] [FILE...]\n";
    return 1;
}

/** A unit of work: a file path or a builder circuit, plus its label. */
struct Unit
{
    std::string label;
    const dse::CircuitBuilder* builder = nullptr; ///< null: file path
};

/** A whole unsigned decimal token: no sign, no blanks, no overflow. */
bool
parseSize(const std::string& text, std::size_t& out)
{
    const char* end = text.data() + text.size();
    const auto res = std::from_chars(text.data(), end, out);
    return res.ec == std::errc{} && res.ptr == end;
}

/** A whole decimal token naming a finite double. */
bool
parseDouble(const std::string& text, double& out)
{
    const char* end = text.data() + text.size();
    const auto res = std::from_chars(text.data(), end, out);
    return res.ec == std::errc{} && res.ptr == end && std::isfinite(out);
}

bool
parseQubitList(const std::string& csv, std::vector<std::uint32_t>& out)
{
    std::istringstream ss(csv);
    std::string item;
    while (std::getline(ss, item, ',')) {
        std::size_t q = 0;
        if (!parseSize(item, q))
            return false;
        out.push_back(static_cast<std::uint32_t>(q));
    }
    return !out.empty();
}

/** Table 1 catalog entry (or "unit") by name, or nullopt-style fail. */
bool
findDevice(const std::string& name, devices::DeviceModel& out)
{
    for (const auto& d : devices::table1Catalog()) {
        if (d.name == name) {
            out = d;
            return true;
        }
    }
    return false;
}

stab::Circuit
loadUnit(const Unit& unit)
{
    if (unit.builder)
        return unit.builder->make();
    std::ifstream in(unit.label);
    if (!in)
        HETARCH_FATAL("hetarch-lint: cannot read '", unit.label, "'");
    std::ostringstream text;
    text << in.rdbuf();
    // parseCircuit is fatal (exit 1) on malformed input; its
    // diagnostics already carry the line number.
    return stab::parseCircuit(text.str());
}

/** Remove the N-th DETECTOR op (the certification gate's saboteur). */
stab::Circuit
dropDetector(const stab::Circuit& circuit, std::size_t index)
{
    if (index >= circuit.numDetectors())
        HETARCH_FATAL("hetarch-lint: --drop-detector=", index,
                      " but the circuit has only ",
                      circuit.numDetectors(), " detectors");
    stab::Circuit out(circuit.numQubits());
    std::size_t seen = 0;
    for (const auto& op : circuit.ops())
        if (op.code != stab::OpCode::DETECTOR || seen++ != index)
            out.appendOp(op);
    return out;
}

} // namespace

int
main(int argc, char** argv)
{
    // Consumes --metrics-out=PATH (or HETARCH_METRICS_OUT) and arms
    // the snapshot writer; lint.* counters land in the JSON artifact.
    obs::configureMetricsFromArgs(argc, argv);

    bool strict = false;
    bool distance = false;
    bool json = false;
    bool have_expect = false;
    bool have_drop = false;
    bool timing = false;
    bool have_expect_latency = false;
    bool flow = false;
    bool have_expect_peak = false;
    std::size_t expect_distance = 0;
    std::size_t drop_index = 0;
    std::size_t expect_peak = 0;
    double expect_latency = 0.0;
    double scale_durations = 1.0;
    double stale_after = 0.0;
    std::string device_name = "fixed-frequency-transmon";
    std::string storage_name = "3d-multimode-resonator";
    std::vector<std::uint32_t> storage_qubits;
    lint::FaultOptions fault_options;
    std::vector<Unit> units;

    auto add_builders = [&units](const std::string& csv) -> bool {
        std::istringstream ss(csv);
        std::string name;
        while (std::getline(ss, name, ',')) {
            const auto* found = dse::findBuilder(name);
            if (!found) {
                std::cerr << "hetarch-lint: unknown builder '" << name
                          << "' (try --list-builders)\n";
                return false;
            }
            units.push_back({std::string("builder:") + found->name,
                             found});
        }
        return true;
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&arg] {
            return arg.substr(arg.find('=') + 1);
        };
        if (arg == "--strict") {
            strict = true;
        } else if (arg == "--distance") {
            distance = true;
        } else if (arg.rfind("--max-weight=", 0) == 0) {
            if (!parseSize(value(), fault_options.maxWeight))
                return usage();
        } else if (arg.rfind("--expect-distance=", 0) == 0) {
            if (!parseSize(value(), expect_distance))
                return usage();
            have_expect = true;
        } else if (arg.rfind("--drop-detector=", 0) == 0) {
            if (!parseSize(value(), drop_index))
                return usage();
            have_drop = true;
        } else if (arg == "--timing") {
            timing = true;
        } else if (arg.rfind("--device=", 0) == 0) {
            device_name = value();
        } else if (arg.rfind("--storage-device=", 0) == 0) {
            storage_name = value();
        } else if (arg.rfind("--storage-qubits=", 0) == 0) {
            if (!parseQubitList(value(), storage_qubits))
                return usage();
        } else if (arg.rfind("--expect-latency=", 0) == 0) {
            if (!parseDouble(value(), expect_latency))
                return usage();
            have_expect_latency = true;
        } else if (arg.rfind("--scale-durations=", 0) == 0) {
            if (!parseDouble(value(), scale_durations) ||
                scale_durations <= 0.0)
                return usage();
        } else if (arg == "--flow") {
            flow = true;
        } else if (arg.rfind("--stale-after=", 0) == 0) {
            if (!parseDouble(value(), stale_after) ||
                stale_after <= 0.0)
                return usage();
        } else if (arg.rfind("--expect-peak-storage=", 0) == 0) {
            if (!parseSize(value(), expect_peak))
                return usage();
            have_expect_peak = true;
        } else if (arg == "--format=text") {
            json = false;
        } else if (arg == "--format=json") {
            json = true;
        } else if (arg == "--list-builders") {
            for (const auto& b : builderRegistry())
                std::cout << b.name << "\n";
            return 0;
        } else if (arg == "--builders") {
            for (const auto& b : builderRegistry())
                units.push_back({std::string("builder:") + b.name, &b});
        } else if (arg.rfind("--builders=", 0) == 0) {
            if (!add_builders(value()))
                return 1;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "hetarch-lint: unknown option '" << arg
                      << "'\n";
            return usage();
        } else {
            units.push_back({arg, nullptr});
        }
    }
    if (units.empty())
        return usage();
    if (have_expect && !distance) {
        std::cerr << "hetarch-lint: --expect-distance requires "
                     "--distance\n";
        return usage();
    }
    if (have_expect_latency && !timing) {
        std::cerr << "hetarch-lint: --expect-latency requires "
                     "--timing\n";
        return usage();
    }
    if (have_expect_peak && !flow) {
        std::cerr << "hetarch-lint: --expect-peak-storage requires "
                     "--flow\n";
        return usage();
    }
    if (stale_after > 0.0 && !flow) {
        std::cerr << "hetarch-lint: --stale-after requires --flow\n";
        return usage();
    }
    const bool need_model = timing || flow;
    devices::DeviceModel compute_dev;
    devices::DeviceModel storage_dev;
    if (need_model && device_name != "unit" &&
        !findDevice(device_name, compute_dev)) {
        std::cerr << "hetarch-lint: unknown device '" << device_name
                  << "'\n";
        return usage();
    }
    if (need_model && !storage_qubits.empty() &&
        !findDevice(storage_name, storage_dev)) {
        std::cerr << "hetarch-lint: unknown storage device '"
                  << storage_name << "'\n";
        return usage();
    }

    lint::LintDocument doc;
    lint::sched::SchedDocument sched_doc;
    lint::flow::FlowDocument flow_doc;
    bool accepted = true;
    for (const auto& unit : units) {
        auto circ = loadUnit(unit);
        if (have_drop)
            circ = dropDetector(circ, drop_index);

        lint::FileReport file;
        file.path = unit.label;
        file.report = lint::lintCircuit(circ);
        // The DEM builder refuses nondeterministic detectors, so the
        // analyzer only runs on a circuit lint reports no errors for.
        std::shared_ptr<const lint::FaultAnalysis> fault_analysis;
        if (distance && file.report.clean()) {
            fault_analysis =
                qec::DecoderCache::instance().faultAnalysis(
                    circ, fault_options);
            file.hasFaults = true;
            file.faults = *fault_analysis;
            lint::faultFindings(file.faults, file.report);
        }

        std::optional<lint::sched::ScheduleAnalysis> sched;
        std::optional<lint::flow::FlowAnalysis> flow_a;
        if (need_model) {
            // Validate before TimingModel::withStorage: its
            // out-of-range assert is an internal contract, but a bad
            // --storage-qubits index is a user error (exit 1).
            for (auto q : storage_qubits)
                if (q >= circ.numQubits())
                    HETARCH_FATAL("hetarch-lint: --storage-qubits=", q,
                                  " outside the ", circ.numQubits(),
                                  "-qubit register of '", unit.label,
                                  "'");
            lint::sched::TimingModel model;
            if (device_name == "unit") {
                model = lint::sched::TimingModel::unit(
                    circ.numQubits());
            } else if (storage_qubits.empty()) {
                model = lint::sched::TimingModel::uniform(
                    compute_dev, circ.numQubits());
            } else {
                model = lint::sched::TimingModel::withStorage(
                    compute_dev, storage_dev, circ.numQubits(),
                    storage_qubits);
            }
            if (scale_durations != 1.0)
                model.scaleDurations(scale_durations);
            if (timing) {
                lint::sched::SchedOptions sched_options;
                sched_options.faults =
                    fault_analysis ? fault_analysis.get() : nullptr;
                sched = lint::sched::analyzeSchedule(circ, model,
                                                     sched_options);
                lint::sched::scheduleFindings(*sched, file.report);
                sched_doc.files.push_back(
                    {unit.label, model.name, *sched});
            }
            if (flow) {
                lint::flow::FlowOptions flow_options;
                flow_options.faults =
                    fault_analysis ? fault_analysis.get() : nullptr;
                // The gate budget reads the fault analysis, which a
                // report still clean here was given above.
                flow_options.gateBudget =
                    distance && file.report.clean();
                flow_options.staleAfterNs = stale_after;
                flow_a = lint::flow::analyzeFlow(circ, model,
                                                 flow_options);
                lint::flow::flowFindings(*flow_a, file.report);
                flow_doc.files.push_back(
                    {unit.label, model.name, *flow_a});
            }
        }
        cFiles.add();
        cErrors.add(file.report.errorCount());
        cWarnings.add(file.report.warningCount());

        bool ok = strict ? file.report.cleanStrict()
                         : file.report.clean();
        if (have_expect) {
            const auto got = file.hasFaults
                                 ? file.faults.minDistance()
                                 : lint::kInfiniteDistance;
            if (got != expect_distance) {
                std::cerr << "hetarch-lint: " << unit.label
                          << ": certified distance ";
                if (got == lint::kInfiniteDistance)
                    std::cerr << "unbounded";
                else
                    std::cerr << got;
                std::cerr << ", expected " << expect_distance << "\n";
                ok = false;
            }
        }
        if (have_expect_latency && sched) {
            const double got = sched->criticalPathNs;
            const double tol =
                1e-6 * std::max(1.0, std::abs(expect_latency));
            if (std::abs(got - expect_latency) > tol) {
                std::cerr << "hetarch-lint: " << unit.label
                          << ": critical path " << got
                          << " ns, expected " << expect_latency
                          << " ns\n";
                ok = false;
            }
        }
        if (have_expect_peak && flow_a &&
            flow_a->peakStorageOccupancy != expect_peak) {
            std::cerr << "hetarch-lint: " << unit.label
                      << ": peak storage occupancy "
                      << flow_a->peakStorageOccupancy << ", expected "
                      << expect_peak << "\n";
            ok = false;
        }

        if (!json) {
            std::cout << unit.label << ": " << (ok ? "clean" : "FAIL")
                      << " (" << file.report.errorCount() << " errors, "
                      << file.report.warningCount() << " warnings)";
            if (file.hasFaults) {
                std::cout << " distance=";
                const auto d = file.faults.minDistance();
                if (d == lint::kInfiniteDistance)
                    std::cout << "unbounded";
                else
                    std::cout << d;
            }
            if (sched)
                std::cout << " latency=" << sched->criticalPathNs
                          << "ns";
            if (flow_a) {
                std::cout << " swaps=" << flow_a->swapCount
                          << " peak-storage="
                          << flow_a->peakStorageOccupancy;
                if (!flow_a->observables.empty())
                    std::cout << " budget=" << flow_a->maxBudget();
            }
            std::cout << "\n";
            if (!file.report.findings.empty())
                std::cout << file.report.toString();
        }
        accepted = accepted && ok;
        doc.files.push_back(std::move(file));
    }
    // --flow --format=json emits the flow document, --timing the sched
    // document, and otherwise the lint-v1 document.
    if (json) {
        if (flow)
            std::cout << lint::flow::toFlowJson(flow_doc);
        else if (timing)
            std::cout << lint::sched::toSchedJson(sched_doc);
        else
            std::cout << lint::toLintJson(doc);
    }
    return accepted ? 0 : 2;
}
