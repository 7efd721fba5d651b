/**
 * @file
 * Tests for the static fault-path analyzer (hetarch::lint::faults):
 * fault-graph construction from hand-built DEMs, exact distances with
 * verified certificates, detector-coverage findings, the
 * certifiedDistance == d pins for the surface-code builders (the CI
 * gate's in-process twin), and DecoderCache fault-entry reuse.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <vector>

#include "lint/fault_graph.hh"
#include "lint/faults.hh"
#include "lint/lint.hh"
#include "qec/css_circuit.hh"
#include "qec/css_code.hh"
#include "qec/decoder_cache.hh"
#include "qec/surface_circuit.hh"
#include "stab/circuit.hh"
#include "stab/dem.hh"

namespace hetarch {
namespace lint {
namespace {

using stab::DetectorErrorModel;

struct Mech
{
    double p;
    std::vector<std::uint32_t> dets;
    std::uint32_t obs;
};

Mech
mech(double p, std::vector<std::uint32_t> dets, std::uint32_t obs = 0)
{
    return {p, std::move(dets), obs};
}

/** The mechanisms, in order, as a DEM stores them. */
stab::MechanismTable
table(std::initializer_list<Mech> mechs)
{
    stab::MechanismTable t;
    for (const auto& m : mechs)
        t.push_back(m.p, m.dets, m.obs);
    return t;
}

/**
 * 3-qubit repetition-code DEM under code-capacity noise: data errors
 * q0/q2 flip one detector each (boundary edges), q1 flips both, and
 * every data error flips the logical.  Distance 3, certificate
 * {0, 1, 2}.
 */
DetectorErrorModel
repCodeDem()
{
    DetectorErrorModel dem;
    dem.numDetectors = 2;
    dem.numObservables = 1;
    dem.mechanisms = table({mech(0.1, {0}, 1), mech(0.1, {0, 1}, 1),
                            mech(0.1, {1}, 1)});
    return dem;
}

// --- fault-graph construction -----------------------------------------

TEST(FaultGraph, ClassifiesMechanismsByDetectorCount)
{
    DetectorErrorModel dem;
    dem.numDetectors = 4;
    dem.numObservables = 2;
    dem.mechanisms = table({
        mech(0.1, {0, 1}),         // interior edge
        mech(0.2, {2}, 0b01),      // boundary edge
        mech(0.3, {0, 1, 2}, 0b10), // hyperedge: excluded
        mech(0.4, {}, 0b01),       // undetectable
    });

    const auto g = FaultGraph::fromDem(dem);
    EXPECT_EQ(g.numDetectors(), 4u);
    EXPECT_EQ(g.boundaryNode(), 4u);
    EXPECT_EQ(g.numNodes(), 5u);

    ASSERT_EQ(g.edges().size(), 2u);
    EXPECT_EQ(g.edges()[0].u, 0u);
    EXPECT_EQ(g.edges()[0].v, 1u);
    EXPECT_EQ(g.edges()[0].mechanism, 0u);
    EXPECT_EQ(g.edges()[1].u, 2u);
    EXPECT_EQ(g.edges()[1].v, g.boundaryNode());
    EXPECT_EQ(g.edges()[1].observables, 0b01u);

    EXPECT_EQ(g.hyperedgeMechanisms(),
              (std::vector<std::uint32_t>{2}));
    EXPECT_EQ(g.hyperedgeObservables(), 0b10u);
    EXPECT_EQ(g.undetectableMechanisms(),
              (std::vector<std::uint32_t>{3}));
    // Detector 3 is touched by nothing (the hyperedge still counts as
    // flipping detectors 0-2 for coverage purposes).
    EXPECT_EQ(g.deadDetectors(), (std::vector<std::uint32_t>{3}));
}

TEST(FaultGraph, IncidenceListsAreAscendingPerNode)
{
    const auto g = FaultGraph::fromDem(repCodeDem());
    ASSERT_EQ(g.incidence().size(), g.numNodes());
    for (const auto& inc : g.incidence())
        for (std::size_t i = 1; i < inc.size(); ++i)
            EXPECT_LT(inc[i - 1], inc[i]);
    // Boundary node sees both boundary edges (mechanisms 0 and 2).
    EXPECT_EQ(g.incidence()[g.boundaryNode()],
              (std::vector<std::uint32_t>{0, 2}));
}

// --- distance + certificates on hand DEMs ------------------------------

TEST(FaultDistance, RepCodeDistanceThreeWithVerifiedCertificate)
{
    const auto fa = analyzeFaults(repCodeDem());
    ASSERT_EQ(fa.observables.size(), 1u);
    const auto& o = fa.observables[0];
    EXPECT_EQ(o.distance, 3u);
    EXPECT_TRUE(o.graphlike);
    EXPECT_EQ(o.certificate.mechanisms,
              (std::vector<std::uint32_t>{0, 1, 2}));
    EXPECT_TRUE(verifyFaultPath(repCodeDem(), 0,
                                o.certificate.mechanisms));
    EXPECT_EQ(fa.minDistance(), 3u);
}

TEST(FaultDistance, UndetectableMechanismIsDistanceOne)
{
    auto dem = repCodeDem();
    dem.mechanisms.push_back(0.01, {}, 1);
    const auto fa = analyzeFaults(dem);
    EXPECT_EQ(fa.undetectableMechanisms,
              (std::vector<std::uint32_t>{3}));
    EXPECT_EQ(fa.observables[0].distance, 1u);
    EXPECT_EQ(fa.observables[0].certificate.mechanisms,
              (std::vector<std::uint32_t>{3}));
}

TEST(FaultDistance, UnflippableObservableIsUnbounded)
{
    DetectorErrorModel dem;
    dem.numDetectors = 1;
    dem.numObservables = 1;
    // Flips a detector but never the observable: no undetected logical
    // fault exists.
    dem.mechanisms = table({mech(0.1, {0}, 0)});
    const auto fa = analyzeFaults(dem);
    EXPECT_EQ(fa.observables[0].distance, kInfiniteDistance);
    EXPECT_FALSE(fa.observables[0].certificate.exists());
    EXPECT_EQ(fa.minDistance(), kInfiniteDistance);
}

TEST(FaultDistance, HyperedgeObservableLosesGraphlikeFlag)
{
    DetectorErrorModel dem;
    dem.numDetectors = 3;
    dem.numObservables = 1;
    dem.mechanisms = table({
        mech(0.1, {0}, 1),
        mech(0.1, {1}, 0),
        mech(0.1, {0, 1}, 0),
        mech(0.1, {0, 1, 2}, 1), // hyperedge flipping the observable
    });
    const auto fa = analyzeFaults(dem);
    EXPECT_EQ(fa.numHyperedges, 1u);
    EXPECT_FALSE(fa.observables[0].graphlike);
    // The graphlike subset still certifies an upper bound: the cycle
    // boundary-0-1-boundary with odd observable parity.
    EXPECT_EQ(fa.observables[0].distance, 3u);
    EXPECT_EQ(fa.observables[0].certificate.mechanisms,
              (std::vector<std::uint32_t>{0, 1, 2}));
    EXPECT_TRUE(verifyFaultPath(dem, 0,
                                fa.observables[0].certificate.mechanisms));
}

TEST(FaultDistance, CertificateTiesResolveToEarliestSource)
{
    // Two disjoint weight-2 undetected logical paths; the analyzer
    // must deterministically pick the one through the earliest source
    // edge (mechanism 0).
    DetectorErrorModel dem;
    dem.numDetectors = 2;
    dem.numObservables = 1;
    dem.mechanisms = table({mech(0.1, {0}, 1), mech(0.1, {0}, 0),
                            mech(0.1, {1}, 1), mech(0.1, {1}, 0)});
    const auto fa = analyzeFaults(dem);
    EXPECT_EQ(fa.observables[0].distance, 2u);
    EXPECT_EQ(fa.observables[0].certificate.mechanisms,
              (std::vector<std::uint32_t>{0, 1}));
}

// --- verifyFaultPath ---------------------------------------------------

TEST(VerifyFaultPath, AcceptsOnlyUndetectedObservableFlips)
{
    const auto dem = repCodeDem();
    EXPECT_TRUE(verifyFaultPath(dem, 0, {0, 1, 2}));
    EXPECT_FALSE(verifyFaultPath(dem, 0, {}));       // empty set
    EXPECT_FALSE(verifyFaultPath(dem, 0, {0}));      // fires detector 0
    EXPECT_FALSE(verifyFaultPath(dem, 0, {0, 1}));   // fires detector 1
    // {0, 1, 2} twice-cancelled via duplicate handling is out of scope:
    // indices are distinct by contract; a wrong observable bit fails.
    EXPECT_FALSE(verifyFaultPath(dem, 1, {0, 1, 2}));
}

// --- union bound -------------------------------------------------------

TEST(UnionBound, MatchesElementarySymmetricPolynomialByHand)
{
    DetectorErrorModel dem;
    dem.numDetectors = 1;
    dem.numObservables = 1;
    dem.mechanisms = table({mech(0.1, {0}, 1), mech(0.2, {0}, 1),
                            mech(0.3, {0}, 1)});
    // e_1 = 0.6; e_2 = 0.1*0.2 + 0.1*0.3 + 0.2*0.3 = 0.11;
    // e_3 = 0.006.
    EXPECT_DOUBLE_EQ(unionBoundAtWeight(dem, 1), 0.6);
    EXPECT_DOUBLE_EQ(unionBoundAtWeight(dem, 2), 0.11);
    EXPECT_DOUBLE_EQ(unionBoundAtWeight(dem, 3), 0.006);
    // Weight above the mechanism count: no fault set exists.
    EXPECT_DOUBLE_EQ(unionBoundAtWeight(dem, 4), 0.0);
    // Weight 0 is vacuous.
    EXPECT_DOUBLE_EQ(unionBoundAtWeight(dem, 0), 1.0);
}

TEST(UnionBound, AnalyzerEvaluatesAtCeilHalfDistance)
{
    const auto fa = analyzeFaults(repCodeDem());
    const auto& o = fa.observables[0];
    EXPECT_EQ(o.unionBoundWeight, 2u); // ceil(3 / 2)
    EXPECT_DOUBLE_EQ(o.unionBound,
                     unionBoundAtWeight(repCodeDem(), 2));
}

TEST(UnionBound, MaxWeightOverrideWins)
{
    FaultOptions options;
    options.maxWeight = 1;
    const auto fa = analyzeFaults(repCodeDem(), options);
    EXPECT_EQ(fa.observables[0].unionBoundWeight, 1u);
    EXPECT_DOUBLE_EQ(fa.observables[0].unionBound,
                     unionBoundAtWeight(repCodeDem(), 1));
}

// --- findings ----------------------------------------------------------

bool
hasFinding(const LintReport& report, const std::string& pass,
           Severity severity, const std::string& needle)
{
    for (const auto& f : report.findings)
        if (f.pass == pass && f.severity == severity &&
            f.message.find(needle) != std::string::npos)
            return true;
    return false;
}

TEST(FaultFindings, SeveritiesMatchTheContract)
{
    DetectorErrorModel dem;
    dem.numDetectors = 2;
    dem.numObservables = 1;
    dem.mechanisms = table({mech(0.1, {0}, 1), mech(0.05, {}, 1)});

    LintReport report;
    faultFindings(analyzeFaults(dem), report);
    // Undetectable mechanism: error.  Dead detector 1: info.
    EXPECT_TRUE(hasFinding(report, "fault-coverage", Severity::Error,
                           "distance-1 hole"));
    EXPECT_TRUE(hasFinding(report, "fault-coverage", Severity::Info,
                           "detector 1 can never fire"));
    EXPECT_TRUE(hasFinding(report, "fault-distance", Severity::Info,
                           "certified fault distance 1"));
    EXPECT_EQ(report.errorCount(), 1u);
}

TEST(FaultFindings, UnboundedDistanceWarnsAboutMiswiring)
{
    DetectorErrorModel dem;
    dem.numDetectors = 1;
    dem.numObservables = 1;
    dem.mechanisms = table({mech(0.1, {0}, 0)});
    LintReport report;
    faultFindings(analyzeFaults(dem), report);
    EXPECT_TRUE(hasFinding(report, "fault-distance", Severity::Warning,
                           "may be mis-wired"));
}

// --- builder pins: the CI gate's in-process twin -----------------------

TEST(CertifiedDistance, SurfaceMemoryEqualsCodeDistance)
{
    for (std::size_t d : {3u, 5u, 7u}) {
        const auto c = qec::surfaceMemoryZ(d, d, qec::CircuitNoise{});
        EXPECT_EQ(certifiedDistance(c), d) << "d=" << d;
    }
}

TEST(CertifiedDistance, SurfaceMemoryXBasis)
{
    const auto c = qec::surfaceMemory(3, 3, qec::CircuitNoise{},
                                      qec::MemoryBasis::X);
    EXPECT_EQ(certifiedDistance(c), 3u);
}

TEST(CertifiedDistance, DroppingADetectorReducesSurfaceD3)
{
    // The CI negative self-check in C++ form: remove the first
    // DETECTOR op and the certified distance must drop below 3.
    const auto c = qec::surfaceMemoryZ(3, 3, qec::CircuitNoise{});
    stab::Circuit perturbed(c.numQubits());
    std::size_t detectors = 0;
    for (const auto& op : c.ops())
        if (op.code != stab::OpCode::DETECTOR || detectors++ != 0)
            perturbed.appendOp(op);
    EXPECT_LT(certifiedDistance(perturbed), 3u);
}

// --- DecoderCache fault entries ----------------------------------------

TEST(DecoderCacheFaults, SecondLookupHitsTheCache)
{
    auto& cache = qec::DecoderCache::instance();
    cache.clear();
    const auto c = qec::surfaceMemoryZ(3, 2, qec::CircuitNoise{});

    const auto a = cache.faultAnalysis(c);
    const auto size_after_first = cache.size();
    const auto b = cache.faultAnalysis(c);
    EXPECT_EQ(cache.size(), size_after_first);
    // Build-once: both handles alias one analysis.
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(a->minDistance(), 3u);

    // Different options are a different cache key.
    FaultOptions options;
    options.maxWeight = 1;
    const auto d = cache.faultAnalysis(c, options);
    EXPECT_NE(d.get(), a.get());
    EXPECT_GT(cache.size(), size_after_first);
    cache.clear();
}

TEST(DecoderCacheFaults, MatchesDirectAnalysis)
{
    auto& cache = qec::DecoderCache::instance();
    cache.clear();
    const auto c = qec::codeCapacityMemoryZ(qec::makeSteane(), 2, 0.01,
                                            0.01);
    const auto cached = cache.faultAnalysis(c);
    EXPECT_TRUE(*cached == analyzeCircuitFaults(c));
    cache.clear();
}

} // namespace
} // namespace lint
} // namespace hetarch
