/**
 * @file
 * Aaronson–Gottesman stabilizer tableau simulator.
 *
 * Exact simulation of Clifford circuits with measurement.  This is the
 * *reference* simulator: O(n^2) per measurement, used for correctness
 * tests, detector-determinism validation, and small systems.  Bulk
 * Monte-Carlo sampling uses FrameSimulator instead.
 */

#pragma once

#include <vector>

#include "core/rng.hh"
#include "stab/circuit.hh"
#include "stab/pauli.hh"

namespace hetarch {
namespace stab {

/**
 * Stabilizer state of n qubits in tableau form: n destabilizer rows
 * followed by n stabilizer rows, each a signed Pauli string.
 */
class TableauSimulator
{
  public:
    /** |0...0> state on @p num_qubits qubits. */
    explicit TableauSimulator(std::size_t num_qubits);

    std::size_t numQubits() const { return nq; }

    // --- gates ---------------------------------------------------------
    void h(std::size_t q);
    void s(std::size_t q);
    void sdg(std::size_t q);
    void x(std::size_t q);
    void y(std::size_t q);
    void z(std::size_t q);
    void cx(std::size_t control, std::size_t target);
    void cz(std::size_t a, std::size_t b);
    void swapQubits(std::size_t a, std::size_t b);

    /**
     * Measure @p q in Z.  Returns the outcome; sets @p was_random (if
     * non-null) to whether the outcome was a coin flip.
     */
    bool measure(std::size_t q, Rng& rng, bool* was_random = nullptr);

    /** Reset @p q to |0>. */
    void reset(std::size_t q, Rng& rng);

    /** Expectation of a Pauli string: +1, -1, or 0 (indeterminate). */
    int expectation(const PauliString& p) const;

    /**
     * Run a full circuit, sampling noise with @p rng.  Returns the
     * measurement record.
     */
    std::vector<bool> run(const Circuit& circuit, Rng& rng);

    /**
     * Compute detector and observable values from a measurement record.
     * Returns {detector values, observable values}.
     */
    static std::pair<std::vector<bool>, std::vector<bool>>
    annotationsFromRecord(const Circuit& circuit,
                          const std::vector<bool>& record);

    /**
     * Validate that every detector of @p circuit is deterministic under
     * noiseless execution: runs the noiseless circuit @p trials times
     * with different random-measurement outcomes and checks detector
     * parities never change.  Observables must be deterministic too.
     */
    static bool checkDetectorsDeterministic(const Circuit& circuit,
                                            int trials = 4,
                                            std::uint64_t seed = 12345);

  private:
    /** row_h *= row_i with sign tracking. */
    void rowMult(std::size_t h, std::size_t i);

    std::size_t nq;
    /** 2*nq rows: [0,nq) destabilizers, [nq,2nq) stabilizers. */
    std::vector<PauliString> rows;
};

} // namespace stab
} // namespace hetarch
