#include "lint/schedule.hh"

#include <algorithm>
#include <sstream>

#include "core/logging.hh"
#include "exec/thread_pool.hh"
#include "obs/obs.hh"

namespace hetarch {
namespace lint {
namespace sched {

namespace {

// Telemetry.  All counters are deterministic functions of the analyzed
// (circuit, model) sequence: the schedule is a serial sweep and the
// per-observable bound DP depends only on its inputs, so worker count
// cannot move them — the exec/obs two-tier contract.  The histogram
// (wall time) is advisory, like every timer.
obs::Counter& cAnalyses = obs::counter("lint.sched.analyses");
obs::Counter& cOpsScheduled = obs::counter("lint.sched.ops_scheduled");
obs::Counter& cHazards = obs::counter("lint.sched.hazards");
obs::Histogram& hAnalyzeNs = obs::histogram("lint.sched.analyze_ns");

/** Tolerance for "simultaneous" interval endpoints (ns). */
constexpr double kEps = 1e-9;

bool
isGate1q(stab::OpCode code)
{
    switch (code) {
      case stab::OpCode::H:
      case stab::OpCode::S:
      case stab::OpCode::SDG:
      case stab::OpCode::X:
      case stab::OpCode::Y:
      case stab::OpCode::Z:
        return true;
      default:
        return false;
    }
}

bool
isGate2q(stab::OpCode code)
{
    return code == stab::OpCode::CX || code == stab::OpCode::CZ ||
           code == stab::OpCode::SWAP;
}

/** Per-target cost of a timed op on its hosting device. */
double
targetCost(stab::OpCode code, const DeviceTiming& dev)
{
    if (isGate1q(code))
        return dev.gate1q;
    if (code == stab::OpCode::SWAP)
        return dev.storage ? dev.swap : dev.gate2q;
    if (isGate2q(code))
        return dev.gate2q;
    if (code == stab::OpCode::M || code == stab::OpCode::MR)
        return dev.readout;
    HETARCH_ASSERT(code == stab::OpCode::R, "untimed op costed");
    return dev.reset;
}

/** An interval on a device instance (for the port-concurrency check). */
struct InstanceUse
{
    double startNs;
    double endNs;
    std::uint32_t op;
};

} // namespace

bool
isTimed(stab::OpCode code)
{
    return isGate1q(code) || isGate2q(code) ||
           code == stab::OpCode::M || code == stab::OpCode::R ||
           code == stab::OpCode::MR;
}

double
ScheduleAnalysis::certifiedIdleBound() const
{
    double worst = 0.0;
    for (const auto& o : observables)
        worst = std::max(worst, o.idleBound);
    return worst;
}

std::size_t
ScheduleAnalysis::hazardErrors() const
{
    std::size_t n = 0;
    for (const auto& h : hazards)
        n += h.severity == Severity::Error ? 1 : 0;
    return n;
}

double
elementarySymmetricBound(const std::vector<double>& probs,
                         std::size_t weight)
{
    if (weight == 0)
        return 1.0; // zero mechanisms already "suffice": vacuous bound
    if (weight > probs.size())
        return 0.0; // no k-subset of n < k mechanisms: e_k = 0
    // e_k by the standard O(n * k) DP, accumulating in index order.
    std::vector<double> e(weight + 1, 0.0);
    e[0] = 1.0;
    for (const double p : probs)
        for (std::size_t k = weight; k >= 1; --k)
            e[k] += e[k - 1] * p;
    return std::min(1.0, e[weight]);
}

ScheduleAnalysis
analyzeSchedule(const stab::Circuit& circuit, const TimingModel& model,
                const SchedOptions& options)
{
    obs::ScopedTimer timer(hAnalyzeNs);
    cAnalyses.add();

    const std::size_t nq = circuit.numQubits();
    HETARCH_ASSERT(model.assignment.size() >= nq,
                   "timing model covers ", model.assignment.size(),
                   " qubits, circuit needs ", nq);

    ScheduleAnalysis out;

    // --- static capacity check (independent of the schedule) ---------
    std::vector<std::uint32_t> instanceLoad(model.devices.size(), 0);
    for (std::size_t q = 0; q < nq; ++q)
        ++instanceLoad[model.assignment[q]];
    for (std::size_t i = 0; i < instanceLoad.size(); ++i) {
        if (instanceLoad[i] <=
            static_cast<std::uint32_t>(model.devices[i].modes))
            continue;
        std::ostringstream os;
        os << "device instance " << i << " (" << model.devices[i].name
           << ") hosts " << instanceLoad[i] << " qubits but has only "
           << model.devices[i].modes << " modes";
        out.hazards.push_back({"sched-capacity", Severity::Error,
                               kNoOpIndex, os.str()});
    }

    // --- ASAP sweep ---------------------------------------------------
    // Joint op rule: all targets of one op start together at the max of
    // their ready times — exactly stab::analyzeCircuit's depth rule, so
    // unit durations reproduce CircuitStats::depth.
    std::vector<double> ready(nq, 0.0);
    std::vector<std::vector<ScheduledOp>> perQubit(nq);
    struct Record
    {
        double endNs;
        bool completes; ///< false: produced on a readout-less device
    };
    std::vector<Record> records;
    records.reserve(circuit.numMeasurements());
    std::vector<std::uint8_t> collapsed(nq, 0);

    const auto& ops = circuit.ops();
    for (std::uint32_t idx = 0; idx < ops.size(); ++idx) {
        const auto& op = ops[idx];

        if (op.code == stab::OpCode::DETECTOR ||
            op.code == stab::OpCode::OBSERVABLE) {
            for (const auto r : op.targets) {
                if (r < records.size() && !records[r].completes) {
                    std::ostringstream os;
                    os << (op.code == stab::OpCode::DETECTOR
                               ? "detector"
                               : "observable")
                       << " consumes measurement record " << r
                       << ", which never completes (measured on a "
                          "device without readout)";
                    out.hazards.push_back({"sched-feedback",
                                           Severity::Error, idx,
                                           os.str()});
                }
            }
            continue;
        }
        if (!isTimed(op.code))
            continue; // noise channels are instantaneous labels

        double start = 0.0;
        double cost = 0.0;
        for (const auto t : op.targets) {
            start = std::max(start, ready[t]);
            cost = std::max(cost, targetCost(op.code,
                                             model.deviceFor(t)));
        }
        const double end = start + cost;

        for (const auto t : op.targets) {
            const auto& dev = model.deviceFor(t);

            // Semantic hazards on the target's device.  Measurements
            // are the readout pass's concern, not the gate set's.
            if (dev.storage && op.code != stab::OpCode::SWAP &&
                op.code != stab::OpCode::M &&
                op.code != stab::OpCode::MR) {
                std::ostringstream os;
                os << stab::opCodeName(op.code) << " on qubit " << t
                   << ": storage device " << dev.name
                   << " supports only SWAP access (DR2)";
                out.hazards.push_back({"sched-gateset", Severity::Error,
                                       idx, os.str()});
            }
            if ((op.code == stab::OpCode::M ||
                 op.code == stab::OpCode::MR) &&
                !dev.hasReadout) {
                std::ostringstream os;
                os << "measurement of qubit " << t << " on device "
                   << dev.name << ", which has no readout";
                out.hazards.push_back({"sched-readout", Severity::Error,
                                       idx, os.str()});
            }

            // Reset discipline: a measured qubit must be reset before
            // it re-enters coherent gates.
            if (collapsed[t] &&
                (isGate1q(op.code) || isGate2q(op.code))) {
                std::ostringstream os;
                os << stab::opCodeName(op.code) << " on qubit " << t
                   << " after measurement without an intervening "
                      "reset";
                out.hazards.push_back({"sched-reset-gap",
                                       Severity::Warning, idx,
                                       os.str()});
                collapsed[t] = 0; // warn once per measurement
            }
            if (op.code == stab::OpCode::M)
                collapsed[t] = 1;
            else if (op.code == stab::OpCode::R ||
                     op.code == stab::OpCode::MR)
                collapsed[t] = 0;

            ready[t] = end;
            perQubit[t].push_back({idx, start, end});
        }
        if (op.code == stab::OpCode::M || op.code == stab::OpCode::MR) {
            for (const auto t : op.targets)
                records.push_back(
                    {end, model.deviceFor(t).hasReadout});
        }

        out.schedule.push_back({idx, start, end});
        out.criticalPathNs = std::max(out.criticalPathNs, end);
        ++out.opsScheduled;
    }
    cOpsScheduled.add(out.opsScheduled);

    // --- port concurrency on multi-qubit instances --------------------
    // Single-qubit instances are serialized by their qubit's ready
    // time; a shared instance (storage resonator) can be handed an ASAP
    // schedule demanding two of its modes at once through its one port.
    std::vector<std::vector<InstanceUse>> instanceUse(
        model.devices.size());
    for (std::size_t q = 0; q < nq; ++q) {
        const auto inst = model.assignment[q];
        if (instanceLoad[inst] < 2)
            continue;
        for (const auto& s : perQubit[q])
            instanceUse[inst].push_back({s.startNs, s.endNs, s.op});
    }
    for (std::size_t i = 0; i < instanceUse.size(); ++i) {
        auto& uses = instanceUse[i];
        std::sort(uses.begin(), uses.end(),
                  [](const InstanceUse& a, const InstanceUse& b) {
                      return a.startNs != b.startNs
                                 ? a.startNs < b.startNs
                                 : a.op < b.op;
                  });
        for (std::size_t u = 1; u < uses.size(); ++u) {
            // One op touching two modes of the instance is a single
            // port transaction, not a conflict with itself.
            if (uses[u].op == uses[u - 1].op)
                continue;
            if (uses[u].startNs < uses[u - 1].endNs - kEps) {
                std::ostringstream os;
                os << "ops " << uses[u - 1].op << " and " << uses[u].op
                   << " overlap on device instance " << i << " ("
                   << model.devices[i].name
                   << "), which has a single port";
                out.hazards.push_back({"sched-overlap", Severity::Error,
                                       uses[u].op, os.str()});
            }
        }
    }
    cHazards.add(out.hazards.size());

    // --- idle windows -------------------------------------------------
    for (std::size_t q = 0; q < nq; ++q) {
        const auto& dev = model.deviceFor(static_cast<std::uint32_t>(q));
        QubitTimeline tl;
        tl.qubit = static_cast<std::uint32_t>(q);
        tl.device = dev.name;
        for (std::size_t s = 0; s < perQubit[q].size(); ++s) {
            const auto& cur = perQubit[q][s];
            tl.busyNs += cur.endNs - cur.startNs;
            if (s == 0)
                continue;
            const double gap = cur.startNs - perQubit[q][s - 1].endNs;
            if (gap <= kEps)
                continue;
            IdleWindow w;
            w.qubit = tl.qubit;
            w.startNs = perQubit[q][s - 1].endNs;
            w.endNs = cur.startNs;
            w.errorProb = idleError(gap, dev.t1, dev.t2);
            tl.idleNs += gap;
            ++tl.idleWindows;
            out.idleWindows.push_back(w);
        }
        out.totalIdleNs += tl.idleNs;
        out.qubits.push_back(std::move(tl));
    }

    // --- per-observable idle bounds -----------------------------------
    // Every idle window is an independent decoherence mechanism; for an
    // observable certified at distance d, at least ceil(d / 2) of them
    // must fire before min-weight decoding can fail.  Fan observables
    // out over the exec engine; slots are pre-sized and reduced in
    // observable order, so the result is worker-count independent.
    const std::size_t nobs = circuit.numObservables();
    std::vector<double> probs;
    probs.reserve(out.idleWindows.size());
    for (const auto& w : out.idleWindows)
        probs.push_back(w.errorProb);

    std::vector<ObservableIdleBound> slots(nobs);
    exec::parallelFor(nobs, [&](std::size_t i) {
        ObservableIdleBound b;
        b.observable = static_cast<std::uint32_t>(i);
        b.weight = 1;
        if (options.faults) {
            b.weight = 0;
            for (const auto& of : options.faults->observables) {
                if (of.observable != b.observable)
                    continue;
                if (of.distance != kInfiniteDistance)
                    b.weight = (of.distance + 1) / 2;
                break;
            }
        }
        b.idleBound =
            b.weight == 0 ? 0.0
                          : elementarySymmetricBound(probs, b.weight);
        slots[i] = b;
    });
    out.observables = std::move(slots);
    return out;
}

void
scheduleFindings(const ScheduleAnalysis& analysis, LintReport& report)
{
    for (const auto& h : analysis.hazards)
        report.findings.push_back(h);

    {
        std::ostringstream os;
        os << "critical path " << analysis.criticalPathNs << " ns over "
           << analysis.opsScheduled << " timed ops; total idle "
           << analysis.totalIdleNs << " ns across "
           << analysis.idleWindows.size() << " windows";
        report.add("sched-latency", Severity::Info, kNoOpIndex,
                   os.str());
    }
    for (const auto& o : analysis.observables) {
        std::ostringstream os;
        os << "observable " << o.observable << ": idle-decoherence "
           << "bound " << o.idleBound;
        if (o.weight != 0)
            os << " (>= " << o.weight << " idle windows must fire)";
        else
            os << " (no undetected fault path; idle decoherence "
                  "cannot flip it through the fault graph)";
        report.add("sched-idle-bound", Severity::Info, kNoOpIndex,
                   os.str());
    }
}

} // namespace sched
} // namespace lint
} // namespace hetarch
