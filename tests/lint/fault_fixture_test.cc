/**
 * @file
 * Table-driven sweep over the fault-injection fixture corpus
 * (tests/lint/fixtures/faults/): each .circ file carries
 * "# expect-distance:" / "# expect-finding:" / "# baseline-distance:"
 * annotations describing the damage injected into it, and the
 * analyzer must reproduce exactly those expectations.  The same corpus
 * is swept through the hetarch-lint CLI by scripts/check_lint_clean.sh;
 * this test exercises the library path with full structural access.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/faults.hh"
#include "lint/lint.hh"
#include "stab/circuit_io.hh"

#ifndef HETARCH_LINT_FIXTURE_DIR
#error "HETARCH_LINT_FIXTURE_DIR must point at tests/lint/fixtures"
#endif

namespace hetarch {
namespace lint {
namespace {

struct Fixture
{
    std::string name;
    std::string text;
    /** Parsed "# expect-distance:" (kInfiniteDistance = unbounded). */
    std::size_t expectDistance = 0;
    /** Parsed "# baseline-distance:" (0 = not annotated). */
    std::size_t baselineDistance = 0;
    /** Parsed "# expect-finding:" (empty = none). */
    std::string expectFinding;
};

std::string
annotation(const std::string& text, const std::string& key)
{
    const std::string tag = "# " + key + ": ";
    const auto pos = text.find(tag);
    if (pos == std::string::npos)
        return "";
    const auto end = text.find('\n', pos);
    return text.substr(pos + tag.size(), end - pos - tag.size());
}

Fixture
loadFixture(const std::string& name)
{
    const std::string path = std::string(HETARCH_LINT_FIXTURE_DIR) +
                             "/faults/" + name + ".circ";
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing fixture " << path;
    std::ostringstream buf;
    buf << in.rdbuf();

    Fixture f;
    f.name = name;
    f.text = buf.str();
    const auto expect = annotation(f.text, "expect-distance");
    EXPECT_FALSE(expect.empty()) << name << " lacks # expect-distance";
    f.expectDistance = expect == "unbounded"
                           ? kInfiniteDistance
                           : static_cast<std::size_t>(
                                 std::stoull(expect));
    const auto baseline = annotation(f.text, "baseline-distance");
    if (!baseline.empty())
        f.baselineDistance =
            static_cast<std::size_t>(std::stoull(baseline));
    f.expectFinding = annotation(f.text, "expect-finding");
    return f;
}

/** Every fixture in the corpus; keep in sync with the directory. */
const char* const kCorpus[] = {
    "dropped_detector",
    "skipped_round",
    "miswired_observable",
    "uec_steane_hook",
};

TEST(FaultFixtures, AnnotationsMatchAnalyzerOutput)
{
    for (const auto* name : kCorpus) {
        const auto fixture = loadFixture(name);
        const auto circuit = stab::parseCircuit(fixture.text);

        // All fault fixtures lint clean: the damage is in the
        // fault-tolerance layer, not the IR.  The report composes lint
        // and the analyzer as hetarch-lint --distance does.
        auto report = lintCircuit(circuit);
        const auto fa = analyzeCircuitFaults(circuit);
        faultFindings(fa, report);
        EXPECT_EQ(report.errorCount() > 0,
                  fixture.expectFinding == "fault-coverage")
            << name << "\n" << report.toString();

        EXPECT_EQ(fa.minDistance(), fixture.expectDistance)
            << name << ": annotated distance mismatch";

        // The injected damage must move the distance off the
        // undamaged circuit's baseline (down for dropped checks,
        // to unbounded for a mis-wired observable).
        if (fixture.baselineDistance != 0) {
            EXPECT_NE(fa.minDistance(), fixture.baselineDistance)
                << name << ": damage did not change the distance";
        }

        if (!fixture.expectFinding.empty()) {
            bool found = false;
            for (const auto& f : report.findings)
                found = found || (f.pass == fixture.expectFinding &&
                                  f.severity != Severity::Info);
            EXPECT_TRUE(found)
                << name << ": no non-info " << fixture.expectFinding
                << " finding\n" << report.toString();
        }
    }
}

TEST(FaultFixtures, CertificatesVerifyAgainstTheirDems)
{
    for (const auto* name : kCorpus) {
        const auto fixture = loadFixture(name);
        const auto circuit = stab::parseCircuit(fixture.text);
        const auto dem = stab::buildDetectorErrorModel(circuit);
        const auto fa = analyzeFaults(dem);
        for (const auto& o : fa.observables) {
            if (o.certificate.exists()) {
                EXPECT_TRUE(verifyFaultPath(dem, o.observable,
                                            o.certificate.mechanisms))
                    << name << " observable " << o.observable;
            }
        }
    }
}

} // namespace
} // namespace lint
} // namespace hetarch
