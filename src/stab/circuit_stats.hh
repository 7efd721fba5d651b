/**
 * @file
 * Circuit cost statistics: gate counts, noise-site counts, and an
 * ASAP-depth estimate.  Used in experiment reports and to compare the
 * hardware cost of heterogeneous vs homogeneous schedules.
 */

#pragma once

#include <cstddef>
#include <cstdint>

#include "stab/circuit.hh"

namespace hetarch {
namespace stab {

/** Aggregate operation counts of a circuit. */
struct CircuitStats
{
    std::size_t qubits = 0;
    std::size_t oneQubitGates = 0;  ///< H, S, SDG, X, Y, Z
    std::size_t twoQubitGates = 0;  ///< CX, CZ, SWAP
    std::size_t measurements = 0;   ///< M + MR
    std::size_t resets = 0;         ///< R + MR
    std::size_t noiseSites = 0;     ///< noise ops of any kind
    std::size_t detectors = 0;
    /**
     * ASAP schedule depth counting only gates/measurements (each op
     * occupies its targets for one step).
     */
    std::size_t depth = 0;
};

/** Compute statistics for @p circuit. */
CircuitStats analyzeCircuit(const Circuit& circuit);

/**
 * Content hash of a circuit: FNV-1a in four interleaved lanes over its
 * register size and its flat op storage (records, targets and the bits
 * of the noise parameters), so equal circuits hash alike and circuits
 * that simulate, decode or schedule differently almost surely do not.
 * The memoization key of qec::DecoderCache, with the op and detector
 * counts beside it.
 */
std::uint64_t hashCircuit(const Circuit& circuit);

} // namespace stab
} // namespace hetarch
