#include "lint/faults.hh"

#include <algorithm>
#include <sstream>

#include "core/logging.hh"
#include "exec/thread_pool.hh"
#include "lint/schedule.hh"
#include "obs/obs.hh"

namespace hetarch {
namespace lint {

namespace {

// Telemetry.  All three counters are deterministic functions of the
// analyzed DEM (each BFS is sequential and its expansion count depends
// only on the graph), so they stay bit-identical at any worker count —
// the same two-tier contract the exec/obs counters follow.
obs::Counter& cAnalyses = obs::counter("lint.faults.analyses");
obs::Counter& cSources = obs::counter("lint.faults.sources");
obs::Counter& cExpansions = obs::counter("lint.faults.expansions");

/** One BFS result: a candidate undetected fault set for an observable. */
struct Candidate
{
    std::size_t weight = kInfiniteDistance;
    std::vector<std::uint32_t> mechanisms;
    std::uint64_t expansions = 0;

    bool found() const { return weight != kInfiniteDistance; }
};

/**
 * Close the odd source edge @p src into a minimum-size undetected
 * fault set flipping observable bit @p bit.
 *
 * Any undetected fault set over graphlike mechanisms is a disjoint
 * union of cycles of the fault graph (every detector needs an even
 * number of incident fired edges; the boundary is unconstrained, and
 * cycles through the boundary model boundary-to-boundary chains).  A
 * minimal set flipping the observable is a single cycle with odd
 * observable parity, so it decomposes as one observable-flipping edge
 * e = (u, v) plus an even-parity path from v back to u avoiding e.
 * That path is found by BFS on the parity-doubled graph: states are
 * (node, observable parity), unit edge weights, neighbors scanned in
 * ascending edge order — fully deterministic.
 */
Candidate
closeSourceEdge(const FaultGraph& g, std::uint32_t src,
                std::uint32_t bit)
{
    Candidate out;
    const auto& edges = g.edges();
    const FaultEdge& e = edges[src];

    const std::size_t states = 2 * g.numNodes();
    // state = node * 2 + parity
    const std::uint32_t start = e.v * 2;
    const std::uint32_t goal = e.u * 2;
    std::vector<std::uint8_t> seen(states, 0);
    std::vector<std::uint32_t> parentState(states, 0);
    std::vector<std::uint32_t> parentEdge(states, 0);
    std::vector<std::uint32_t> queue;
    queue.reserve(states);
    seen[start] = 1;
    queue.push_back(start);

    bool reached = false;
    for (std::size_t qi = 0; qi < queue.size() && !reached; ++qi) {
        const auto cur = queue[qi];
        const auto node = cur >> 1;
        const auto parity = cur & 1u;
        for (const auto eid : g.incidence()[node]) {
            if (eid == src)
                continue; // the source edge may not be reused
            const auto& f = edges[eid];
            const auto other = f.u == node ? f.v : f.u;
            const auto flips = (f.observables >> bit) & 1u;
            const auto next = other * 2 + (parity ^ flips);
            if (seen[next])
                continue;
            seen[next] = 1;
            parentState[next] = cur;
            parentEdge[next] = eid;
            ++out.expansions;
            if (next == goal) {
                reached = true;
                break;
            }
            queue.push_back(next);
        }
    }
    if (!reached)
        return out;

    out.mechanisms.push_back(e.mechanism);
    for (auto s = goal; s != start; s = parentState[s])
        out.mechanisms.push_back(edges[parentEdge[s]].mechanism);
    std::sort(out.mechanisms.begin(), out.mechanisms.end());
    out.weight = out.mechanisms.size();
    return out;
}

} // namespace

std::size_t
FaultAnalysis::minDistance() const
{
    std::size_t best = kInfiniteDistance;
    for (const auto& o : observables)
        best = std::min(best, o.distance);
    return best;
}

bool
verifyFaultPath(const stab::DetectorErrorModel& dem,
                std::uint32_t observable,
                const std::vector<std::uint32_t>& mechanisms)
{
    if (mechanisms.empty())
        return false;
    const auto [dets, obs] = dem.applyMechanisms(mechanisms);
    for (const auto fired : dets)
        if (fired)
            return false;
    return ((obs >> observable) & 1u) != 0;
}

double
unionBoundAtWeight(const stab::DetectorErrorModel& dem, std::size_t weight)
{
    // Shared e_k kernel (schedule.hh): the schedule analyzer's idle
    // bound and this union bound are the same polynomial over
    // different mechanism sets.
    const auto probs = dem.mechanisms.probabilities();
    return sched::elementarySymmetricBound({probs.begin(), probs.end()},
                                           weight);
}

FaultAnalysis
analyzeFaults(const stab::DetectorErrorModel& dem,
              const FaultOptions& options)
{
    const auto graph = FaultGraph::fromDem(dem);

    FaultAnalysis out;
    out.numDetectors = dem.numDetectors;
    out.numMechanisms = dem.mechanisms.size();
    out.numHyperedges = graph.hyperedgeMechanisms().size();
    out.deadDetectors = graph.deadDetectors();
    out.undetectableMechanisms = graph.undetectableMechanisms();
    const auto probs = dem.mechanisms.probabilities();
    out.mechanismProbabilities.assign(probs.begin(), probs.end());
    cAnalyses.add();

    for (std::uint32_t bit = 0; bit < dem.numObservables; ++bit) {
        ObservableFaults of;
        of.observable = bit;
        of.graphlike = ((graph.hyperedgeObservables() >> bit) & 1u) == 0;

        // A mechanism flipping the observable and no detector is an
        // undetected fault set of weight 1 — nothing can be shorter.
        std::uint32_t hole = 0;
        bool has_hole = false;
        for (const auto m : graph.undetectableMechanisms()) {
            if ((dem.mechanisms[m].observables >> bit) & 1u) {
                hole = m;
                has_hole = true;
                break; // ascending order: first hit is the smallest
            }
        }
        if (has_hole) {
            of.distance = 1;
            of.certificate.mechanisms = {hole};
        } else {
            // Fan the per-source BFS out over the exec engine: slots
            // are pre-sized and reduced in source order on this
            // thread, so the result is worker-count independent.
            std::vector<std::uint32_t> sources;
            for (std::uint32_t eid = 0; eid < graph.edges().size();
                 ++eid)
                if ((graph.edges()[eid].observables >> bit) & 1u)
                    sources.push_back(eid);

            std::vector<Candidate> slots(sources.size());
            exec::parallelFor(sources.size(), [&](std::size_t i) {
                slots[i] = closeSourceEdge(graph, sources[i], bit);
            });

            std::uint64_t expansions = 0;
            std::size_t best = kInfiniteDistance;
            for (std::size_t i = 0; i < slots.size(); ++i) {
                expansions += slots[i].expansions;
                // Strict < keeps the earliest source on ties, making
                // the certificate deterministic as well.
                if (slots[i].weight < best) {
                    best = slots[i].weight;
                    of.certificate = {std::move(slots[i].mechanisms)};
                }
            }
            of.distance = best;
            cSources.add(sources.size());
            cExpansions.add(expansions);
        }

        if (of.certificate.exists()) {
            HETARCH_ASSERT(
                verifyFaultPath(dem, bit, of.certificate.mechanisms),
                "fault-path certificate failed verification");
            HETARCH_ASSERT(of.certificate.mechanisms.size() ==
                               of.distance,
                           "certificate weight mismatch");
        }

        std::size_t k = options.maxWeight;
        if (k == 0 && of.distance != kInfiniteDistance)
            k = (of.distance + 1) / 2; // ceil(distance / 2)
        if (k != 0) {
            of.unionBoundWeight = k;
            of.unionBound = unionBoundAtWeight(dem, k);
        }
        out.observables.push_back(std::move(of));
    }
    return out;
}

FaultAnalysis
analyzeCircuitFaults(const stab::Circuit& circuit,
                     const FaultOptions& options)
{
    return analyzeFaults(stab::buildDetectorErrorModel(circuit),
                         options);
}

std::size_t
certifiedDistance(const stab::Circuit& circuit)
{
    return analyzeCircuitFaults(circuit).minDistance();
}

void
faultFindings(const FaultAnalysis& fa, LintReport& report)
{
    for (const auto m : fa.undetectableMechanisms) {
        std::ostringstream os;
        os << "error mechanism " << m
           << " flips a logical observable with zero flipped "
              "detectors (distance-1 hole)";
        report.add("fault-coverage", Severity::Error, kNoOpIndex,
                   os.str());
    }
    // Dead detectors are informational: they occur legitimately in
    // valid circuits (noiseless segments, code-capacity noise leaves
    // first-round detectors unflippable), but they carry no syndrome
    // information, which is worth surfacing.
    for (const auto d : fa.deadDetectors) {
        std::ostringstream os;
        os << "detector " << d
           << " can never fire: no error mechanism flips it";
        report.add("fault-coverage", Severity::Info, kNoOpIndex,
                   os.str());
    }
    if (fa.numHyperedges > 0) {
        std::ostringstream os;
        os << fa.numHyperedges << " of " << fa.numMechanisms
           << " mechanisms flip more than two detectors and are "
              "excluded from the fault graph; certified distances are "
              "upper bounds over graphlike fault sets";
        report.add("fault-graph", Severity::Info, kNoOpIndex, os.str());
    }

    for (const auto& of : fa.observables) {
        std::ostringstream os;
        os << "observable " << of.observable << ": ";
        if (of.distance == kInfiniteDistance) {
            os << "no undetected "
               << (of.graphlike ? "" : "graphlike ")
               << "fault path exists; the observable may be mis-wired "
                  "to a stabilizer or detector record";
            report.add("fault-distance", Severity::Warning, kNoOpIndex,
                       os.str());
        } else {
            os << "certified fault distance " << of.distance
               << (of.graphlike ? "" : " (graphlike upper bound)")
               << "; certificate mechanisms {";
            for (std::size_t i = 0; i < of.certificate.mechanisms.size();
                 ++i)
                os << (i ? ", " : "") << of.certificate.mechanisms[i];
            os << "}";
            report.add("fault-distance", Severity::Info, kNoOpIndex,
                       os.str());
        }

        if (of.unionBoundWeight != 0) {
            std::ostringstream ub;
            ub << "observable " << of.observable
               << ": union bound " << of.unionBound
               << " on the logical error rate (>= " << of.unionBoundWeight
               << " mechanisms must fire)";
            report.add("fault-bound", Severity::Info, kNoOpIndex,
                       ub.str());
        }
    }
}

} // namespace lint
} // namespace hetarch
