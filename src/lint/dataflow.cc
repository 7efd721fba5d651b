#include "lint/dataflow.hh"

#include <algorithm>
#include <sstream>

#include "core/logging.hh"
#include "exec/thread_pool.hh"
#include "lint/schedule.hh"
#include "obs/obs.hh"

namespace hetarch {
namespace lint {
namespace flow {

namespace {

// Telemetry.  All counters are deterministic functions of the
// analyzed (circuit, model, options) sequence: the walk is a serial
// sweep in program order and the per-observable budget DP depends
// only on its inputs, so worker count cannot move them — the
// exec/obs two-tier contract.  The histogram (wall time) is advisory.
obs::Counter& cAnalyses = obs::counter("lint.flow.analyses");
obs::Counter& cHazards = obs::counter("lint.flow.hazards");
obs::Histogram& hAnalyzeNs = obs::histogram("lint.flow.analyze_ns");

/** Tolerance for "simultaneous" interval endpoints (ns). */
constexpr double kEps = 1e-9;

/** Abstract content of one qubit location. */
enum class Content : std::uint8_t
{
    Fresh,     ///< |0>: implicit init, R/MR, or vacuum from storage
    Data,      ///< live computational state
    Collapsed, ///< measured, not yet reset
};

/**
 * One tracked qubit location.  The content (and its viaSwap flag)
 * travels through SWAPs; the residency fields describe the *location*
 * — what the storage mode currently hosts — and never move.
 */
struct ModeState
{
    Content content = Content::Fresh;
    bool viaSwap = false;     ///< Fresh that arrived through a SWAP
    double residentSinceNs = 0.0;
    std::uint32_t depositOp = 0;
    std::size_t openResidency = kNoOpIndex; ///< index into residencies
};

} // namespace

std::size_t
FlowAnalysis::hazardErrors() const
{
    std::size_t n = 0;
    for (const auto& h : hazards)
        n += h.severity == Severity::Error ? 1 : 0;
    return n;
}

double
FlowAnalysis::maxBudget() const
{
    double worst = 0.0;
    for (const auto& o : observables)
        worst = std::max(worst, o.budget);
    return worst;
}

FlowAnalysis
analyzeFlow(const stab::Circuit& circuit, const TimingModel& model,
            const FlowOptions& options)
{
    obs::ScopedTimer timer(hAnalyzeNs);
    cAnalyses.add();

    const std::size_t nq = circuit.numQubits();
    HETARCH_ASSERT(model.assignment.size() >= nq,
                   "timing model covers ", model.assignment.size(),
                   " qubits, circuit needs ", nq);

    // The ASAP schedule supplies every op's start/end time.
    const auto sched_analysis = sched::analyzeSchedule(
        circuit, model, sched::SchedOptions{options.faults});

    FlowAnalysis out;
    out.criticalPathNs = sched_analysis.criticalPathNs;

    const auto& ops = circuit.ops();
    std::vector<sched::ScheduledOp> at(ops.size());
    for (const auto& s : sched_analysis.schedule)
        at[s.op] = s;

    // --- the abstract walk -------------------------------------------
    std::vector<ModeState> state(nq);
    std::vector<std::uint8_t> touched(nq, 0); ///< had a timed op
    std::vector<double> lastEndNs(nq, 0.0);
    std::vector<std::uint8_t> recordVacuum;
    recordVacuum.reserve(circuit.numMeasurements());
    // Live-Data occupancy per instance (program order is the
    // deterministic tie-break; single-port instances serialize their
    // accesses anyway or trip sched-overlap).
    std::vector<std::size_t> occupancy(model.devices.size(), 0);
    std::vector<std::size_t> peak(model.devices.size(), 0);
    // Idle windows during which the location held non-Fresh content,
    // collected per qubit so the budget accumulates in the same
    // (qubit, start) order as the sched idle bound.
    std::vector<std::vector<double>> liveProbs(nq);

    auto hazard = [&](const char* pass, Severity sev, std::size_t op,
                      const std::string& message) {
        out.hazards.push_back({pass, sev, op, message});
    };

    auto noteIdle = [&](std::uint32_t q, double startNs) {
        if (!touched[q])
            return;
        const double gap = startNs - lastEndNs[q];
        if (gap <= kEps || state[q].content == Content::Fresh)
            return;
        const auto& dev = model.deviceFor(q);
        liveProbs[q].push_back(sched::idleError(gap, dev.t1, dev.t2));
        ++out.liveIdleWindows;
        out.liveIdleNs += gap;
    };

    auto closeResidency = [&](std::uint32_t q, double endNs,
                              std::size_t retrieveOp, bool orphaned) {
        const std::size_t r = state[q].openResidency;
        if (r == kNoOpIndex)
            return;
        out.residencies[r].endNs = endNs;
        out.residencies[r].retrieveOp = retrieveOp;
        out.residencies[r].orphaned = orphaned;
        state[q].openResidency = kNoOpIndex;
        const auto inst = model.assignment[q];
        HETARCH_ASSERT(occupancy[inst] > 0, "residency underflow");
        --occupancy[inst];
    };

    auto openResidency = [&](std::uint32_t q, std::uint32_t op,
                             double startNs) {
        const auto inst = model.assignment[q];
        state[q].openResidency = out.residencies.size();
        state[q].residentSinceNs = startNs;
        state[q].depositOp = op;
        out.residencies.push_back(
            {q, inst, startNs, startNs, op, kNoOpIndex, false});
        ++occupancy[inst];
        peak[inst] = std::max(peak[inst], occupancy[inst]);
        const auto& dev = model.devices[inst];
        if (occupancy[inst] > static_cast<std::size_t>(dev.modes)) {
            std::ostringstream os;
            os << "deposit onto device instance " << inst << " ("
               << dev.name << ") raises live occupancy to "
               << occupancy[inst] << ", but it has only " << dev.modes
               << (dev.modes == 1 ? " mode" : " modes");
            hazard("flow-capacity", Severity::Error, op, os.str());
        }
    };

    for (std::uint32_t idx = 0; idx < ops.size(); ++idx) {
        const auto& op = ops[idx];

        if (op.code == stab::OpCode::DETECTOR ||
            op.code == stab::OpCode::OBSERVABLE) {
            for (const auto r : op.targets) {
                if (r < recordVacuum.size() && recordVacuum[r]) {
                    std::ostringstream os;
                    os << (op.code == stab::OpCode::DETECTOR
                               ? "detector"
                               : "observable")
                       << " consumes measurement record " << r
                       << " of vacuum: the qubit's state was moved to "
                          "storage and never retrieved";
                    hazard("flow-use-before-init", Severity::Error, idx,
                           os.str());
                }
            }
            continue;
        }
        if (!sched::isTimed(op.code))
            continue; // noise channels are instantaneous labels

        const auto& when = at[idx];
        for (const auto t : op.targets)
            noteIdle(t, when.startNs);

        if (op.code == stab::OpCode::SWAP) {
            ++out.swapCount;
            out.movementNs += when.endNs - when.startNs;
            const std::uint32_t a = op.targets[0];
            const std::uint32_t b = op.targets[1];

            // Storage-side bookkeeping, per storage end.  A SWAP
            // exchanges contents, so nothing is ever destroyed — the
            // hazards are intent bugs the exchange semantics expose.
            for (const auto& [s, c] : {std::pair{a, b}, std::pair{b, a}}) {
                if (!model.deviceFor(s).storage)
                    continue;
                const Content incoming = state[c].content;
                const Content held = state[s].content;
                if (held == Content::Data) {
                    // Retrieval: the residency ends here.
                    const double sat =
                        when.startNs - state[s].residentSinceNs;
                    const auto& dev = model.deviceFor(s);
                    const double threshold = options.staleAfterNs > 0
                                                 ? options.staleAfterNs
                                                 : dev.t2;
                    if (sat > threshold + kEps) {
                        std::ostringstream os;
                        os << "retrieval from storage mode (qubit "
                           << s << ", " << dev.name << ") after "
                           << sat << " ns resident, over the "
                           << threshold << " ns staleness threshold";
                        hazard("flow-stale-storage", Severity::Warning,
                               idx, os.str());
                    }
                    closeResidency(s, when.startNs, idx, false);
                    if (incoming == Content::Data) {
                        std::ostringstream os;
                        os << "deposit onto storage mode (qubit " << s
                           << ") already holding state from op "
                           << state[s].depositOp
                           << "; the previous state pops out into "
                              "qubit "
                           << c;
                        hazard("flow-double-swap", Severity::Warning,
                               idx, os.str());
                    }
                } else if (held == Content::Collapsed) {
                    std::ostringstream os;
                    os << "swap with storage mode (qubit " << s
                       << ") holding a measured, un-reset state; the "
                          "stale result pops out into qubit "
                       << c;
                    hazard("flow-double-swap", Severity::Warning, idx,
                           os.str());
                } else if (incoming != Content::Data) {
                    // Nothing real moves either way: the storage mode
                    // was never written, so the "retrieval" half of
                    // the exchange brings back vacuum.
                    std::ostringstream os;
                    os << "swap with storage mode (qubit " << s
                       << ") that was never written: qubit " << c
                       << " receives vacuum";
                    hazard("flow-use-before-init", Severity::Error, idx,
                           os.str());
                }
                if (incoming == Content::Data)
                    openResidency(s, idx, when.endNs);
            }

            // The exchange itself: content and its provenance flag
            // travel; the location-bound residency fields stay put.
            std::swap(state[a].content, state[b].content);
            std::swap(state[a].viaSwap, state[b].viaSwap);
            // Fresh content that crossed a SWAP is moved vacuum, not a
            // local |0>: measuring it is the forgot-to-retrieve bug.
            for (const auto t : op.targets)
                if (state[t].content == Content::Fresh)
                    state[t].viaSwap = true;
        } else if (op.code == stab::OpCode::R ||
                   op.code == stab::OpCode::MR) {
            for (const auto t : op.targets) {
                if (op.code == stab::OpCode::MR)
                    recordVacuum.push_back(
                        state[t].content == Content::Fresh &&
                        state[t].viaSwap);
                closeResidency(t, at[idx].startNs, idx, false);
                state[t].content = Content::Fresh;
                state[t].viaSwap = false;
            }
        } else if (op.code == stab::OpCode::M) {
            for (const auto t : op.targets) {
                recordVacuum.push_back(
                    state[t].content == Content::Fresh &&
                    state[t].viaSwap);
                state[t].content = Content::Collapsed;
            }
        } else {
            // Computational gates: contents become Data.
            for (const auto t : op.targets) {
                if (state[t].content == Content::Collapsed) {
                    std::ostringstream os;
                    os << stab::opCodeName(op.code) << " on qubit " << t
                       << " consumes a measured, un-reset state";
                    hazard("flow-measure-reuse", Severity::Warning, idx,
                           os.str());
                }
                state[t].content = Content::Data;
                state[t].viaSwap = false;
            }
        }

        for (const auto t : op.targets) {
            touched[t] = 1;
            lastEndNs[t] = when.endNs;
        }
        ++out.opsTracked;
    }

    // --- orphans: state still parked at circuit end ------------------
    for (std::size_t q = 0; q < nq; ++q) {
        const auto qu = static_cast<std::uint32_t>(q);
        if (state[q].openResidency == kNoOpIndex)
            continue;
        const std::uint32_t dep = state[q].depositOp;
        std::ostringstream os;
        os << "storage mode (qubit " << qu << ", "
           << model.deviceFor(qu).name
           << ") still holds state deposited by op " << dep
           << " at circuit end";
        hazard("flow-orphan", Severity::Warning, dep, os.str());
        closeResidency(qu, out.criticalPathNs, kNoOpIndex, true);
    }
    cHazards.add(out.hazards.size());

    // --- pressure summary --------------------------------------------
    for (const auto& r : out.residencies)
        out.storageQubitNs += r.durationNs();
    for (std::size_t i = 0; i < model.devices.size(); ++i) {
        if (!model.devices[i].storage)
            continue;
        InstancePressure p;
        p.instance = static_cast<std::uint32_t>(i);
        p.device = model.devices[i].name;
        p.modes = model.devices[i].modes;
        p.peakOccupancy = peak[i];
        for (const auto& r : out.residencies) {
            if (r.instance != p.instance)
                continue;
            ++p.residencies;
            p.storageQubitNs += r.durationNs();
        }
        out.instances.push_back(std::move(p));
        out.peakStorageOccupancy =
            std::max(out.peakStorageOccupancy, peak[i]);
    }

    // --- certified end-to-end budgets --------------------------------
    // Gate errors (DEM mechanisms) and live idle-decoherence windows
    // are independent mechanism families; failure of an observable
    // certified at distance d under min-weight decoding needs at
    // least k = ceil(d / 2) of them to fire, so e_k over the combined
    // probabilities bounds the logical error rate end to end.
    std::vector<double> probs;
    if (options.gateBudget) {
        HETARCH_ASSERT(options.faults, "gateBudget needs options.faults");
        probs = options.faults->mechanismProbabilities;
    }
    const std::size_t gateMechs = probs.size();
    for (std::size_t q = 0; q < nq; ++q)
        for (const double p : liveProbs[q])
            probs.push_back(p);

    const std::size_t nobs = circuit.numObservables();
    std::vector<ObservableBudget> slots(nobs);
    exec::parallelFor(nobs, [&](std::size_t i) {
        ObservableBudget b;
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
        if (b.weight != 0) {
            const std::vector<double> gate(probs.begin(),
                                           probs.begin() + gateMechs);
            const std::vector<double> idle(probs.begin() + gateMechs,
                                           probs.end());
            b.gateBound =
                sched::elementarySymmetricBound(gate, b.weight);
            b.idleBound =
                sched::elementarySymmetricBound(idle, b.weight);
            b.budget = sched::elementarySymmetricBound(probs, b.weight);
        }
        slots[i] = b;
    });
    out.observables = std::move(slots);
    return out;
}

void
flowFindings(const FlowAnalysis& analysis, LintReport& report)
{
    for (const auto& h : analysis.hazards)
        report.findings.push_back(h);

    {
        std::ostringstream os;
        os << analysis.swapCount << " swaps moving state for "
           << analysis.movementNs << " ns; peak storage occupancy "
           << analysis.peakStorageOccupancy << " across "
           << analysis.residencies.size() << " residencies ("
           << analysis.storageQubitNs << " qubit-ns in storage); "
           << analysis.liveIdleWindows << " live idle windows ("
           << analysis.liveIdleNs << " ns)";
        report.add("flow-summary", Severity::Info, kNoOpIndex,
                   os.str());
    }
    for (const auto& o : analysis.observables) {
        std::ostringstream os;
        os << "observable " << o.observable
           << ": certified end-to-end budget " << o.budget;
        if (o.weight != 0)
            os << " (gate " << o.gateBound << " + live idle "
               << o.idleBound << " at weight " << o.weight << ")";
        else
            os << " (no undetected fault path)";
        report.add("flow-budget", Severity::Info, kNoOpIndex, os.str());
    }
}

} // namespace flow
} // namespace lint
} // namespace hetarch
