/**
 * @file
 * Static verification of circuits (`hetarch::lint`): a multi-pass
 * verifier over the stab::Circuit IR that runs *before* simulation.
 *
 * HetArch establishes correctness hierarchically: standard cells obey
 * the design rules DR1-DR4 and circuits obey the detector-determinism
 * condition before any expensive sampling runs.  The simulators would
 * only discover a non-deterministic detector mid-run (or not at all);
 * the lint passes prove the same properties statically and report them
 * in a structured LintReport, mirroring the cells::DrcReport idiom.
 *
 * A stab::Circuit is valid by construction (appendOp and the builder
 * helpers refuse malformed ops), so the passes report only what a
 * valid circuit can still get wrong:
 *   structural   DETECTOR / OBSERVABLE_INCLUDE with no targets
 *                (a constant parity)
 *   record-ref   an annotation referencing one measurement twice
 *                (the pair cancels out of the parity)
 *   liveness     redundant back-to-back measurements, measurements of
 *                untouched qubits, coupling components that are
 *                operated on but never observed
 *   determinism  every detector and observable whose noiseless
 *                parity is random (stab::findNondeterminism: the DEM
 *                builder's reverse walk, exact, unlike the sampled
 *                TableauSimulator::checkDetectorsDeterministic)
 *
 * Cell-level verification (lint::verifyCell, verify_cell.hh) composes
 * cells::checkDesignRules with these passes over the cell's lowered
 * schedule, giving one report for the whole hierarchy level.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stab/circuit.hh"

namespace hetarch {
namespace lint {

/** How bad a finding is. */
enum class Severity : std::uint8_t
{
    Info,    ///< stylistic / informational, never fails a build
    Warning, ///< suspicious but simulable (fails only strict mode)
    Error,   ///< the circuit will misbehave under simulation
};

/** Render "info" / "warning" / "error". */
const char* severityName(Severity s);

/** Sentinel op index for findings not tied to one operation. */
inline constexpr std::size_t kNoOpIndex = static_cast<std::size_t>(-1);

/** One finding of one pass. */
struct LintFinding
{
    std::string pass;     ///< pass name ("structural", "record-ref", ...)
    Severity severity = Severity::Error;
    std::size_t opIndex = kNoOpIndex; ///< offending op, or kNoOpIndex
    std::string message;

    bool operator==(const LintFinding&) const = default;
};

/** Structured result of a lint run. */
struct LintReport
{
    std::vector<LintFinding> findings;

    void add(std::string pass, Severity severity, std::size_t op_index,
             std::string message);

    /** No errors (warnings and infos allowed). */
    bool clean() const { return errorCount() == 0; }
    /** No errors and no warnings. */
    bool cleanStrict() const { return errorCount() + warningCount() == 0; }

    std::size_t errorCount() const;
    std::size_t warningCount() const;

    /** One finding per line: "error[pass] op 12: message". */
    std::string toString() const;
};

/** The determinism pass alone: appends its findings to @p report. */
void passDeterminism(const stab::Circuit& circuit, LintReport& report);

/** Run all passes in the order listed above. */
LintReport lintCircuit(const stab::Circuit& circuit);

/**
 * Builder guard: lint @p circuit and panic with the full report when it
 * has errors.  Circuit generators call this under !NDEBUG so a broken
 * builder fails fast at construction instead of corrupting a run.
 */
void assertClean(const stab::Circuit& circuit, const char* context);

} // namespace lint
} // namespace hetarch
