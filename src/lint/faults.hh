/**
 * @file
 * Static fault-path analyzer (`hetarch::lint::faults`): certified
 * circuit fault distance, detector coverage, and union-bound error
 * budgets — all computed from the detector error model alone, before
 * a single Monte-Carlo shot is spent.
 *
 * Three analyses over the FaultGraph of a circuit's DEM:
 *
 *  distance   For every logical observable, the minimum number of
 *             error mechanisms whose combined firing flips the
 *             observable while flipping no detector.  Computed
 *             exactly over the graphlike mechanism subset: each
 *             observable-flipping edge is closed into an undetected
 *             cycle by a parity-aware BFS on the doubled graph, fanned
 *             out over source edges on the exec engine (bit-identical
 *             at any worker count).  The result carries a *certificate*
 *             — a concrete minimum-weight mechanism set, re-verified by
 *             XOR before it is reported.  When hyperedge mechanisms
 *             can also flip the observable the certified value is an
 *             upper bound on the true distance (graphlike flag false);
 *             the bound is tight whenever a graphlike fault set
 *             achieves the true distance, which holds for matching-
 *             decodable codes like the surface code.
 *
 *  coverage   Distance-1 holes (mechanisms flipping an observable with
 *             zero flipped detectors) and dead detectors (no mechanism
 *             can ever fire them).
 *
 *  budget     A weight-limited union bound on the logical error rate:
 *             failure under min-weight decoding requires at least
 *             ceil(distance / 2) mechanisms to fire, so
 *             P(fail) <= e_k(p_1..p_n), the elementary symmetric
 *             polynomial of the mechanism probabilities at
 *             k = ceil(distance / 2) (capped at 1).  Assumes mechanism
 *             independence (true by DEM construction) and is sound for
 *             any decoder that corrects every fault set of fewer than
 *             ceil(distance / 2) mechanisms.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "lint/fault_graph.hh"
#include "lint/lint.hh"
#include "stab/circuit.hh"
#include "stab/dem.hh"

namespace hetarch {
namespace lint {

/** Distance value when no undetected fault path exists. */
inline constexpr std::size_t kInfiniteDistance =
    static_cast<std::size_t>(-1);

/** A concrete undetected logical fault set (the distance certificate). */
struct FaultPath
{
    /** Mechanism indices into the DEM, sorted ascending; empty when no
        path exists.  The weight of the path is mechanisms.size(). */
    std::vector<std::uint32_t> mechanisms;

    bool exists() const { return !mechanisms.empty(); }

    bool operator==(const FaultPath& o) const
    {
        return mechanisms == o.mechanisms;
    }
};

/** Everything the analyzer certifies about one logical observable. */
struct ObservableFaults
{
    std::uint32_t observable = 0;
    /** Certified fault distance (kInfiniteDistance if no path). */
    std::size_t distance = kInfiniteDistance;
    /** Minimum-weight undetected fault set achieving `distance`. */
    FaultPath certificate;
    /**
     * True when no excluded hyperedge mechanism flips this observable,
     * i.e. the certified distance is exact, not just an upper bound.
     */
    bool graphlike = true;
    /** Union bound on the logical error rate (see file comment). */
    double unionBound = 0.0;
    /** The weight k the union bound was evaluated at (0 if skipped). */
    std::size_t unionBoundWeight = 0;

    bool operator==(const ObservableFaults& o) const
    {
        return observable == o.observable && distance == o.distance &&
               certificate == o.certificate && graphlike == o.graphlike &&
               unionBound == o.unionBound &&
               unionBoundWeight == o.unionBoundWeight;
    }
};

/** Full analyzer output for one circuit / DEM. */
struct FaultAnalysis
{
    std::size_t numDetectors = 0;
    std::size_t numMechanisms = 0;
    /** Mechanisms excluded from the fault graph (> 2 detectors). */
    std::size_t numHyperedges = 0;
    /** One entry per observable, ascending by observable id. */
    std::vector<ObservableFaults> observables;
    /** Detectors no mechanism can flip (ascending). */
    std::vector<std::uint32_t> deadDetectors;
    /** Mechanisms flipping an observable but no detector (ascending). */
    std::vector<std::uint32_t> undetectableMechanisms;
    /**
     * The DEM's mechanism probabilities in mechanism order, so that the
     * flow analyzer's gate budget needs no second DEM build.  The
     * report writers do not emit them.
     */
    std::vector<double> mechanismProbabilities;

    /** Smallest certified distance over all observables. */
    std::size_t minDistance() const;

    bool operator==(const FaultAnalysis& o) const
    {
        return numDetectors == o.numDetectors &&
               numMechanisms == o.numMechanisms &&
               numHyperedges == o.numHyperedges &&
               observables == o.observables &&
               deadDetectors == o.deadDetectors &&
               undetectableMechanisms == o.undetectableMechanisms &&
               mechanismProbabilities == o.mechanismProbabilities;
    }
};

/** Knobs for the analyzer. */
struct FaultOptions
{
    /**
     * Weight at which the union bound is evaluated; 0 means derive it
     * from the certified distance as ceil(distance / 2) per
     * observable.
     */
    std::size_t maxWeight = 0;
};

/** Analyze a prebuilt DEM. */
FaultAnalysis analyzeFaults(const stab::DetectorErrorModel& dem,
                            const FaultOptions& options = {});

/**
 * Build the DEM of @p circuit and analyze it.  The DEM builder refuses
 * (HETARCH_FATAL) a circuit with a nondeterministic detector or
 * observable: run lintCircuit first on untrusted input and analyze only
 * a clean one, then report through faultFindings, as hetarch-lint does.
 */
FaultAnalysis analyzeCircuitFaults(const stab::Circuit& circuit,
                                   const FaultOptions& options = {});

/**
 * Certified fault distance of @p circuit, minimized over observables.
 * For a distance-d surface-code memory experiment this equals d.
 */
std::size_t certifiedDistance(const stab::Circuit& circuit);

/**
 * Check a certificate: firing exactly @p mechanisms must flip no
 * detector and flip observable @p observable.  analyzeFaults verifies
 * every certificate it returns through this predicate.
 */
bool verifyFaultPath(const stab::DetectorErrorModel& dem,
                     std::uint32_t observable,
                     const std::vector<std::uint32_t>& mechanisms);

/**
 * Elementary-symmetric-polynomial union bound e_k over the mechanism
 * probabilities of @p dem, capped at 1.  Exposed for tests and for
 * budget sweeps at explicit weights.
 */
double unionBoundAtWeight(const stab::DetectorErrorModel& dem,
                          std::size_t weight);

/**
 * Convert an analysis into findings: an undetectable mechanism is an
 * error, an unflippable observable a warning (likely mis-wired), dead
 * detectors and certified distances / union bounds are infos.
 */
void faultFindings(const FaultAnalysis& analysis, LintReport& report);

} // namespace lint
} // namespace hetarch
