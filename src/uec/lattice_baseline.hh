/**
 * @file
 * Homogeneous "sea-of-qubits" baseline (paper Section 4's comparison
 * system): data and ancilla qubits embedded in a square lattice of
 * compute devices, with long-range check CNOTs routed through SWAP
 * chains.  Checks are packed greedily into parallel layers of
 * qubit-disjoint groups.  Surface codes should instead use their
 * native parallel circuit (qec::surfaceMemoryZ), as the paper does
 * when an optimal square-lattice transpilation is known.
 */

#pragma once

#include "core/units.hh"
#include "qec/css_code.hh"
#include "stab/circuit.hh"

namespace hetarch {
namespace uec {

/** Noise/timing of the homogeneous lattice. */
struct LatticeNoise
{
    double tc = 0.5 * units::ms;  ///< compute coherence (all devices)
    double p2 = 1e-2;             ///< two-qubit gate depolarizing
    double t2q = 100.0;           ///< two-qubit gate time, ns
    double tMeas = 1.0 * units::us;
    double pMeasFlip = 0.0;
};

/** A square-lattice embedding of a code. */
struct LatticeEmbedding
{
    int side = 0;                           ///< lattice is side x side
    std::vector<int> dataCell;              ///< data qubit -> cell id
    std::vector<int> checkCell;             ///< check -> ancilla cell
};

/**
 * Greedy embedding: data qubits placed to keep each check's support
 * compact, ancillas placed at the free cell nearest their support
 * centroid.
 */
LatticeEmbedding embedOnLattice(const qec::CssCode& code);

/**
 * Memory-Z experiment on the lattice: each check's CNOTs are routed
 * via SWAP chains (each hop a noisy two-qubit gate); checks run in
 * parallel layers when their qubit footprints are disjoint.
 */
stab::Circuit latticeMemoryZ(const qec::CssCode& code,
                             const LatticeEmbedding& embedding,
                             std::size_t rounds,
                             const LatticeNoise& noise);

} // namespace uec
} // namespace hetarch
