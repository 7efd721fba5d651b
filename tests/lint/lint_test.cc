/**
 * @file
 * Tests for the static-verification subsystem (hetarch::lint): a
 * table of known-bad circuits (one per pass), exact determinism
 * checking cross-validated against the Monte-Carlo
 * TableauSimulator::checkDetectorsDeterministic, and a sweep asserting
 * every circuit builder in the repo produces lint-clean output.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cells/standard_cells.hh"
#include "core/rng.hh"
#include "distill/dejmps.hh"
#include "lint/lint.hh"
#include "lint/verify_cell.hh"
#include "qec/css_circuit.hh"
#include "qec/css_code.hh"
#include "qec/surface_circuit.hh"
#include "stab/circuit_io.hh"
#include "stab/dem.hh"
#include "stab/tableau.hh"
#include "uec/assignment.hh"
#include "uec/lattice_baseline.hh"
#include "uec/uec_circuit.hh"

namespace hetarch {
namespace lint {
namespace {

using stab::Circuit;
using stab::Op;
using stab::OpCode;

/** Does the report carry a finding matching all the given fields? */
bool
hasFinding(const LintReport& report, const std::string& pass,
           Severity severity, std::size_t op_index,
           const std::string& needle)
{
    for (const auto& f : report.findings) {
        if (f.pass == pass && f.severity == severity &&
            f.opIndex == op_index &&
            f.message.find(needle) != std::string::npos)
            return true;
    }
    return false;
}

std::size_t
countIn(const LintReport& report, const std::string& pass)
{
    std::size_t n = 0;
    for (const auto& f : report.findings)
        n += f.pass == pass;
    return n;
}

// --- table of known-bad circuits, one per pass ------------------------
// A Circuit refuses malformed ops at append time (the parse death tests
// below), so every case here is a valid circuit with a lint finding.

struct BadCase
{
    const char* name;
    Circuit circuit;
    const char* pass;       ///< pass expected to flag it
    Severity severity;
    std::size_t opIndex;    ///< expected finding anchor
    const char* needle;     ///< message substring
};

std::vector<BadCase>
badCases()
{
    std::vector<BadCase> cases;
    auto build = [](const std::vector<Op>& ops) {
        Circuit c;
        for (const auto& op : ops)
            c.appendOp(op);
        return c;
    };

    cases.push_back({"empty_detector",
                     build({{OpCode::DETECTOR, {}, {}, 0}}),
                     "structural", Severity::Warning, 0,
                     "dead annotation"});
    cases.push_back({"duplicate_record_ref",
                     build({{OpCode::M, {0}, {}, 0},
                            {OpCode::OBSERVABLE, {0, 0}, {}, 0}}),
                     "record-ref", Severity::Warning, 1,
                     "duplicate pairs cancel"});

    cases.push_back({"redundant_measurement",
                     build({{OpCode::H, {0}, {}, 0},
                            {OpCode::M, {0}, {}, 0},
                            {OpCode::M, {0}, {}, 0}}),
                     "liveness", Severity::Warning, 2,
                     "redundant measurement"});
    cases.push_back({"measure_untouched_qubit",
                     build({{OpCode::M, {0}, {}, 0}}),
                     "liveness", Severity::Warning, 0,
                     "before any gate or reset"});
    cases.push_back({"dead_component",
                     build({{OpCode::H, {0}, {}, 0},
                            {OpCode::CX, {0, 1}, {}, 0},
                            {OpCode::H, {2}, {}, 0},
                            {OpCode::M, {2}, {}, 0}}),
                     "liveness", Severity::Warning, kNoOpIndex,
                     "never measured"});

    cases.push_back({"nondeterministic_detector",
                     build({{OpCode::H, {0}, {}, 0},
                            {OpCode::M, {0}, {}, 0},
                            {OpCode::DETECTOR, {0}, {}, 0}}),
                     "determinism", Severity::Error, 2,
                     "not deterministic"});
    cases.push_back({"nondeterministic_observable",
                     build({{OpCode::H, {0}, {}, 0},
                            {OpCode::M, {0}, {}, 0},
                            {OpCode::OBSERVABLE, {0}, {}, 0}}),
                     "determinism", Severity::Error, 2,
                     "not deterministic"});
    // Resetting half an entangled pair leaves the partner's outcome
    // a coin: carried back through the CX and H, its parity is X_0 Z_1
    // at the start, which anticommutes with qubit 0's initial |0>.
    cases.push_back({"reset_half_of_bell_pair",
                     build({{OpCode::H, {0}, {}, 0},
                            {OpCode::CX, {0, 1}, {}, 0},
                            {OpCode::R, {0}, {}, 0},
                            {OpCode::M, {1}, {}, 0},
                            {OpCode::DETECTOR, {0}, {}, 0}}),
                     "determinism", Severity::Error, 4,
                     "initial |0> of qubit 0"});
    cases.push_back({"measure_plus_after_reset",
                     build({{OpCode::R, {0}, {}, 0},
                            {OpCode::H, {0}, {}, 0},
                            {OpCode::M, {0}, {}, 0},
                            {OpCode::DETECTOR, {0}, {}, 0}}),
                     "determinism", Severity::Error, 3,
                     "collapse of qubit 0 at op 0"});
    return cases;
}

TEST(LintBadCircuits, EachPassFlagsItsFixture)
{
    for (auto& c : badCases()) {
        const auto report = lintCircuit(c.circuit);
        EXPECT_TRUE(hasFinding(report, c.pass, c.severity, c.opIndex,
                               c.needle))
            << c.name << " expected " << severityName(c.severity) << "["
            << c.pass << "] op " << c.opIndex << " containing '"
            << c.needle << "'; got:\n"
            << report.toString();
    }
}

TEST(LintReportApi, CountsAndRendering)
{
    LintReport report;
    report.add("structural", Severity::Error, 3, "broken");
    report.add("liveness", Severity::Warning, kNoOpIndex, "smelly");
    report.add("prob-range", Severity::Info, 0, "note");
    EXPECT_EQ(report.errorCount(), 1u);
    EXPECT_EQ(report.warningCount(), 1u);
    EXPECT_FALSE(report.clean());
    EXPECT_FALSE(report.cleanStrict());
    const auto text = report.toString();
    EXPECT_NE(text.find("error[structural] op 3: broken"),
              std::string::npos);
    EXPECT_NE(text.find("warning[liveness]: smelly"), std::string::npos);

    LintReport warn_only;
    warn_only.add("liveness", Severity::Warning, 0, "w");
    EXPECT_TRUE(warn_only.clean());
    EXPECT_FALSE(warn_only.cleanStrict());
}

// --- determinism pass: positive cases ---------------------------------

TEST(LintDeterminism, BellPairParityIsDeterministic)
{
    Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    const auto a = c.measure(0);
    const auto b = c.measure(1);
    c.detector({a, b});
    c.observableInclude(0, {a, b});
    const auto report = lintCircuit(c);
    EXPECT_TRUE(report.cleanStrict()) << report.toString();
}

TEST(LintDeterminism, RepeatedMeasurementCoinCancels)
{
    // The first M of |+> is a coin; the second repeats it, so the
    // parity of the two is deterministic even though each is random.
    Circuit c(1);
    c.h(0);
    const auto a = c.measure(0);
    const auto b = c.measure(0);
    c.detector({a, b});
    LintReport report;
    passDeterminism(c, report);
    EXPECT_TRUE(report.clean()) << report.toString();
}

TEST(LintDeterminism, MeasureResetDifferenceDetector)
{
    // Standard syndrome idiom: MR twice, difference detector.
    Circuit c(2);
    c.reset(1);
    c.h(0);
    c.cx(0, 1);
    const auto a = c.measureReset(1);
    c.cx(0, 1);
    const auto b = c.measureReset(1);
    c.detector({a, b});
    const auto report = lintCircuit(c);
    EXPECT_TRUE(report.clean()) << report.toString();
}

TEST(LintDeterminism, AgreesWithMonteCarloOnHandCases)
{
    Circuit good(2);
    good.h(0);
    good.cx(0, 1);
    good.detector({good.measure(0), good.measure(1)});
    EXPECT_TRUE(stab::TableauSimulator::checkDetectorsDeterministic(good));
    LintReport good_report;
    passDeterminism(good, good_report);
    EXPECT_TRUE(good_report.clean());

    Circuit bad(2);
    bad.h(0);
    bad.cx(0, 1);
    bad.reset(0);
    bad.detector({bad.measure(1)});
    EXPECT_FALSE(
        stab::TableauSimulator::checkDetectorsDeterministic(bad, 32));
    LintReport bad_report;
    passDeterminism(bad, bad_report);
    EXPECT_FALSE(bad_report.clean());
}

// --- cross-validation against the stab property-test generator --------

/**
 * Same construction as tests/stab/random_circuit_property_test.cc:
 * random Clifford scrambling, two rounds of random stabilizer-ish
 * checks with difference detectors, noise throughout.  Deterministic
 * by construction.
 */
Circuit
randomCircuit(std::uint64_t seed)
{
    Rng rng(seed);
    const std::size_t n_data = 3 + rng.uniformInt(3);
    const std::size_t n_anc = 2 + rng.uniformInt(2);
    Circuit c(n_data + n_anc);

    auto random_clifford_layer = [&]() {
        for (std::uint32_t q = 0; q < n_data; ++q) {
            switch (rng.uniformInt(4)) {
              case 0: c.h(q); break;
              case 1: c.s(q); break;
              case 2: break;
              default: {
                const auto other = static_cast<std::uint32_t>(
                    rng.uniformInt(n_data));
                if (other != q)
                    c.cx(q, other);
                break;
              }
            }
        }
    };
    auto noise_layer = [&]() {
        for (std::uint32_t q = 0; q < n_data; ++q) {
            if (rng.bernoulli(0.5))
                c.depolarize1(q, 0.02 + 0.05 * rng.uniform());
            if (rng.bernoulli(0.3))
                c.xError(q, 0.05 * rng.uniform());
        }
    };

    random_clifford_layer();

    std::vector<std::vector<std::uint32_t>> supports(n_anc);
    for (std::size_t a = 0; a < n_anc; ++a) {
        const std::size_t w = 1 + rng.uniformInt(3);
        for (std::size_t i = 0; i < w; ++i) {
            supports[a].push_back(
                static_cast<std::uint32_t>(rng.uniformInt(n_data)));
        }
    }
    std::vector<std::size_t> first(n_anc);
    for (int round = 0; round < 2; ++round) {
        noise_layer();
        for (std::size_t a = 0; a < n_anc; ++a) {
            const auto anc = static_cast<std::uint32_t>(n_data + a);
            for (auto q : supports[a])
                c.cx(q, anc);
            const auto m = c.measureReset(anc);
            if (round == 0)
                first[a] = m;
            else
                c.detector({first[a], m});
        }
    }
    const auto m_first = c.measure(0);
    for (std::uint32_t q = 0; q < n_data; ++q)
        c.xError(q, 0.02);
    const auto m_second = c.measure(0);
    c.observableInclude(0, {m_first, m_second});
    return c;
}

class DeterminismCrossValidation : public ::testing::TestWithParam<int>
{
};

TEST_P(DeterminismCrossValidation, ReverseWalkMatchesMonteCarlo)
{
    const auto c = randomCircuit(1000 + GetParam());

    LintReport report;
    passDeterminism(c, report);
    EXPECT_TRUE(report.clean()) << report.toString();
    // The sampled oracle misses a single coin with odds 2^-31 at 32 runs.
    EXPECT_TRUE(stab::TableauSimulator::checkDetectorsDeterministic(c, 32));
}

TEST_P(DeterminismCrossValidation, MutatedCircuitFlaggedByBoth)
{
    // Break the circuit: a fresh-coin measurement wired straight into
    // a detector.  Both the exact pass and the sampler must reject it.
    auto c = randomCircuit(1000 + GetParam());
    const std::uint32_t q = 0;
    c.h(q);
    const auto m = c.measure(q);
    c.detector({m});

    LintReport report;
    passDeterminism(c, report);
    EXPECT_FALSE(report.clean());
    EXPECT_FALSE(
        stab::TableauSimulator::checkDetectorsDeterministic(c, 32));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismCrossValidation,
                         ::testing::Range(0, 8));

// --- builder sweep: every generated circuit lints clean ----------------

TEST(LintBuilders, SurfaceMemoryAllDistancesAndBases)
{
    const qec::CircuitNoise noise;
    for (std::size_t d : {2u, 3u, 4u}) {
        for (auto basis : {qec::MemoryBasis::Z, qec::MemoryBasis::X}) {
            const auto c = qec::surfaceMemory(d, 2, noise, basis);
            const auto report = lintCircuit(c);
            EXPECT_TRUE(report.cleanStrict())
                << "d=" << d << " basis="
                << (basis == qec::MemoryBasis::X ? "X" : "Z") << "\n"
                << report.toString();
        }
    }
}

TEST(LintBuilders, CodeCapacityMemoryZ)
{
    for (const auto& code :
         {qec::makeRepetition(3), qec::makeSteane()}) {
        const auto c = qec::codeCapacityMemoryZ(code, 2, 0.01, 0.01);
        const auto report = lintCircuit(c);
        EXPECT_TRUE(report.cleanStrict())
            << code.name << "\n" << report.toString();
    }
}

TEST(LintBuilders, UecMemoryCircuits)
{
    const auto code = qec::makeSteane();
    const uec::UecNoise noise;

    const auto single = uec::uecMemoryZ(
        code, uec::roundRobinAssignment(code), 2, noise);
    const auto single_report = lintCircuit(single);
    EXPECT_TRUE(single_report.cleanStrict()) << single_report.toString();

    uec::UecChain chain;
    chain.numUscExt = 1;
    const auto chained = uec::uecMemoryZ(
        code, uec::roundRobinAssignment(code, chain), 2, noise);
    const auto chained_report = lintCircuit(chained);
    EXPECT_TRUE(chained_report.cleanStrict())
        << chained_report.toString();
}

TEST(LintBuilders, LatticeBaselineMemory)
{
    const auto code = qec::makeSteane();
    const auto emb = uec::embedOnLattice(code);
    const auto c = uec::latticeMemoryZ(code, emb, 2, uec::LatticeNoise{});
    const auto report = lintCircuit(c);
    EXPECT_TRUE(report.cleanStrict()) << report.toString();
}

TEST(LintBuilders, DejmpsCircuit)
{
    const auto c = distill::dejmpsCircuit();
    const auto report = lintCircuit(c);
    EXPECT_TRUE(report.cleanStrict()) << report.toString();
    EXPECT_TRUE(stab::findNondeterminism(c).empty());
    // The sampled oracle misses a single coin with odds 2^-31 at 32 runs.
    EXPECT_TRUE(stab::TableauSimulator::checkDetectorsDeterministic(c, 32));
}

TEST(LintBuilders, RoundTripThroughTextStaysClean)
{
    const auto c = qec::surfaceMemoryZ(3, 2, qec::CircuitNoise{});
    const auto reparsed = stab::parseCircuit(c.toString());
    EXPECT_EQ(reparsed, c);
    EXPECT_TRUE(lintCircuit(reparsed).cleanStrict());
}

// --- cell-level verification ------------------------------------------

TEST(VerifyCell, Table2CellsAllVerify)
{
    for (const auto& cell : cells::table2Cells()) {
        const auto report = verifyCell(cell);
        EXPECT_TRUE(report.cleanStrict())
            << cell.name() << "\n" << report.toString();
    }
}

TEST(VerifyCell, ExcessReadoutIsReported)
{
    // DR4 (minimal readout): a cell with more readout sites than its
    // operations need must surface as a cell-drc finding.  The
    // Register cell has no readout, so pick the first cell that does.
    cells::StandardCell cell("none");
    for (auto& c : cells::table2Cells())
        if (c.readoutCount() >= 1)
            cell = std::move(c);
    ASSERT_GE(cell.readoutCount(), 1u);
    const auto report = verifyCell(cell, cell.readoutCount() - 1);
    EXPECT_FALSE(report.clean());
    EXPECT_EQ(countIn(report, "cell-drc"), report.errorCount());
    EXPECT_TRUE(hasFinding(report, "cell-drc", Severity::Error,
                           kNoOpIndex, "DR4"));
}

// --- parse-time validation (satellite: line-numbered diagnostics) ------

using LintParseDeathTest = ::testing::Test;

TEST(LintParseDeathTest, NoiseParamsValidatedWithLineNumbers)
{
    EXPECT_DEATH(stab::parseCircuit("H 0\nX_ERROR p=1.5 0\n"),
                 "line 2.*outside \\[0, 1\\]");
    EXPECT_DEATH(
        stab::parseCircuit("PAULI_CHANNEL_1 p=0.5 p=0.4 p=0.3 0\n"),
        "line 1.*probabilities sum to");
    EXPECT_DEATH(stab::parseCircuit("CX 0 1 2\n"),
                 "line 1.*even number of targets");
    EXPECT_DEATH(stab::parseCircuit("SWAP 1 1\n"),
                 "line 1.*pairs qubit 1 with itself");
    EXPECT_DEATH(stab::parseCircuit("M 0\nOBSERVABLE_INCLUDE(0) 7\n"),
                 "line 2.*references measurement 7");
    EXPECT_DEATH(stab::parseCircuit("DEPOLARIZE1 p=-0.1 0\n"),
                 "line 1.*outside \\[0, 1\\]");
    EXPECT_DEATH(stab::parseCircuit("DETECTOR 0\nM 0\n"),
                 "line 1.*only 0 exist");
}

TEST(LintParseDeathTest, MalformedTokensGetLineNumberedFatalsNotThrows)
{
    // These used to escape as uncaught std::invalid_argument from the
    // std::sto* family; they must die through HETARCH_FATAL instead.
    EXPECT_DEATH(stab::parseCircuit("this is not a circuit\n"),
                 "line 1.*expected a target index, got 'is'");
    EXPECT_DEATH(stab::parseCircuit("H 0\nM -1\n"),
                 "line 2.*expected a target index, got '-1'");
    EXPECT_DEATH(stab::parseCircuit("X_ERROR p=oops 0\n"),
                 "line 1.*bad parameter value 'oops'");
    EXPECT_DEATH(stab::parseCircuit("X_ERROR p= 0\n"),
                 "line 1.*bad parameter value ''");
    EXPECT_DEATH(stab::parseCircuit("M 0\nOBSERVABLE_INCLUDE(x) 0\n"),
                 "line 2.*expected an observable index, got 'x'");
    EXPECT_DEATH(stab::parseCircuit("M 99999999999999999999\n"),
                 "line 1.*out of range");
}

TEST(LintParse, BroadcastTargetListsSplitIntoCanonicalOps)
{
    const auto c = stab::parseCircuit("R 0 1 2\nCX 0 1 1 2\nM 0 1 2\n");
    ASSERT_EQ(c.ops().size(), 8u);
    EXPECT_EQ(c.numQubits(), 3u);
    EXPECT_EQ(c.numMeasurements(), 3u);
    EXPECT_EQ(c.ops()[3].code, OpCode::CX);
    EXPECT_EQ(c.ops()[3].targets, (std::vector<std::uint32_t>{0, 1}));
    EXPECT_EQ(c.ops()[4].targets, (std::vector<std::uint32_t>{1, 2}));
    EXPECT_TRUE(lintCircuit(c).cleanStrict());
}

TEST(LintParse, FixtureCorpusRoundTripsExactly)
{
    // Every fixture that parses comes back unchanged from toString:
    // circuit text is either rejected or round-trips.
    namespace fs = std::filesystem;
    const fs::path root(HETARCH_LINT_FIXTURE_DIR);
    std::vector<fs::path> files = {root / "bad/dead_qubit.circ",
                                   root / "bad/double_measure.circ",
                                   root / "bad/nondet_detector.circ"};
    for (const char* dir : {"good", "faults", "timing", "flow"}) {
        const auto before = files.size();
        for (const auto& entry : fs::directory_iterator(root / dir))
            if (entry.path().extension() == ".circ")
                files.push_back(entry.path());
        EXPECT_GT(files.size(), before) << "no fixtures in " << dir;
    }
    for (const auto& path : files) {
        std::ifstream in(path);
        ASSERT_TRUE(in.good()) << path;
        std::ostringstream text;
        text << in.rdbuf();
        const auto c = stab::parseCircuit(text.str());
        EXPECT_EQ(stab::parseCircuit(c.toString()), c) << path;
    }
}

} // namespace
} // namespace lint
} // namespace hetarch
