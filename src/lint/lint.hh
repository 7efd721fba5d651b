/**
 * @file
 * Static verification of circuits (`hetarch::lint`): a multi-pass
 * verifier over the stab::Circuit IR that runs *before* simulation.
 *
 * HetArch establishes correctness hierarchically: standard cells obey
 * the design rules DR1-DR4 and circuits obey the detector-determinism
 * condition before any expensive sampling runs.  Today's simulators
 * only discover a malformed circuit mid-run (or not at all); the lint
 * passes prove the same properties statically and report them in a
 * structured LintReport, mirroring the cells::DrcReport idiom.
 *
 * Passes:
 *   structural   op shape: target/param arity per opcode, duplicate
 *                targets inside one op, targets within the register
 *   record-ref   DETECTOR / OBSERVABLE_INCLUDE indices resolve to real
 *                measurements, with no forward references
 *   prob-range   noise parameters lie in [0,1]; PAULI_CHANNEL_1
 *                triples sum to at most 1
 *   liveness     redundant back-to-back measurements, measurements of
 *                untouched qubits, coupling components that are
 *                operated on but never observed
 *   determinism  a symbolic Clifford propagation that *proves* each
 *                detector and observable deterministic under noiseless
 *                execution (no Monte-Carlo; exact, unlike the sampled
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

/** Knobs for lintCircuit. */
struct LintOptions
{
    /**
     * Run the symbolic detector-determinism pass.  It is the most
     * expensive pass (tableau-shaped cost); tools linting huge circuits
     * in a hurry may disable it.
     */
    bool checkDeterminism = true;

    /**
     * Run the static fault-path analyzer (faults.hh): certified
     * circuit distance per observable, detector-coverage holes, and
     * union-bound error budgets.  Off by default; it builds the
     * detector error model, which presumes deterministic detectors,
     * so lintCircuit only runs it when every earlier pass is clean.
     */
    bool checkFaults = false;

    /** Union-bound weight override for the faults pass (0 = derive
        ceil(distance / 2) per observable). */
    std::size_t faultMaxWeight = 0;
};

// --- individual passes ------------------------------------------------
// Each appends its findings to @p report and touches nothing else, so
// they can be composed freely.  passDeterminism assumes the circuit is
// structurally valid; lintCircuit sequences them safely.

void passStructural(const stab::Circuit& circuit, LintReport& report);
void passRecordRefs(const stab::Circuit& circuit, LintReport& report);
void passProbability(const stab::Circuit& circuit, LintReport& report);
void passLiveness(const stab::Circuit& circuit, LintReport& report);
void passDeterminism(const stab::Circuit& circuit, LintReport& report);

/** Run all passes in order (determinism only if nothing failed before). */
LintReport lintCircuit(const stab::Circuit& circuit,
                       const LintOptions& options = {});

/**
 * Builder guard: lint @p circuit and panic with the full report when it
 * has errors.  Circuit generators call this under !NDEBUG so a broken
 * builder fails fast at construction instead of corrupting a run.
 */
void assertClean(const stab::Circuit& circuit, const char* context,
                 const LintOptions& options = {});

} // namespace lint
} // namespace hetarch
