/**
 * @file
 * Standard-cell characterization by exact density-matrix simulation.
 *
 * Following the paper's methodology (Sections 2 and 3.2): the
 * performance of a standard cell is extracted from device-level
 * density-matrix simulation of its signature operations, producing a
 * (duration, error-rate) pair per operation.  Modules then compose
 * these characterizations phenomenologically instead of jointly
 * simulating everything — the key to the claimed >=10^4x reduction in
 * simulation burden.
 *
 * Error rates are average-gate-error style: the operation is applied
 * to one half of a maximally entangled reference pair, giving the
 * entanglement fidelity F_e, converted to average fidelity via
 * F_avg = (d F_e + 1) / (d + 1).  Gates are coherence limited (paper
 * Section 4): their only error is decoherence during the gate, and
 * readouts take the device's readout time.
 */

#pragma once

#include <string>
#include <vector>

#include "cells/cell.hh"

namespace hetarch {
namespace cells {

/** One characterized cell operation. */
struct CharacterizedOp
{
    std::string name;
    double duration = 0.0;   ///< ns
    double errorRate = 0.0;  ///< 1 - average fidelity
};

/** Characterization of one cell. */
struct CellCharacterization
{
    std::string cell;
    std::vector<CharacterizedOp> ops;

    /** Lookup by name; fatal when missing. */
    const CharacterizedOp& op(const std::string& name) const;
};

/**
 * Register: characterizes "load" / "unload" (SWAP between compute and
 * storage), "idle-1us" (storage decay per microsecond) and
 * "roundtrip" (load + unload).
 */
CellCharacterization characterizeRegister(const StandardCell& reg);

/**
 * ParCheck: characterizes "cnot" (two-qubit gate between the compute
 * devices) and "parity-check" (cnot + readout with the kept qubit
 * idling).
 */
CellCharacterization characterizeParCheck(const StandardCell& cell);

/**
 * SeqOp: characterizes "stored-cnot" (swap both qubits out of their
 * Registers, entangle, swap back) and "verified-cnot" (plus a parity
 * readout on the third compute).
 */
CellCharacterization characterizeSeqOp(const StandardCell& cell);

/**
 * USC: characterizes "stabilizer-check-w{2..6}": serialized CNOTs of a
 * weight-w check through the central ancilla, with storage qubits
 * swapped out and back one at a time, then ancilla readout.  Uses
 * phenomenological composition of the Register/gate primitives, which
 * is how the module layer consumes it.
 */
CellCharacterization characterizeUsc(const StandardCell& cell);

} // namespace cells
} // namespace hetarch
