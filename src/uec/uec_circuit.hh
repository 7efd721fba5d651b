/**
 * @file
 * Device-level circuit generation for the Universal Error Correction
 * module: serialized stabilizer checks of an arbitrary CSS code
 * executed on a USC (three 10-mode Registers around a readout
 * ancilla) or a chain of a USC and USC-EXT cells (Fig. 8), with
 * storage-rate idling for stored qubits and compute-rate idling plus
 * 1% two-qubit gate noise during checks (paper Section 4.2.2).
 *
 * Storage SWAPs are coherence limited (paper Section 3.1: resonator
 * load/store fidelity is expected to be limited by SWAP time and
 * transmon T2); the data<->ancilla CNOTs carry the explicit two-qubit
 * error rate of Section 4.2.
 */

#pragma once

#include "core/units.hh"
#include "qec/css_code.hh"
#include "stab/circuit.hh"
#include "uec/assignment.hh"

namespace hetarch {
namespace uec {

/** Noise parameters of the UEC hardware. */
struct UecNoise
{
    double ts = 50.0 * units::ms;  ///< storage T1 = T2
    double tc = 0.5 * units::ms;   ///< compute/ancilla T1 = T2
    double p2 = 1e-2;              ///< two-qubit (CNOT) depolarizing
    double pMeasFlip = 0.0;        ///< classical readout flip
};

/**
 * Build a memory-Z experiment on the assignment's chain: @p rounds
 * serialized rounds of all Z then all X checks (buildRoundSchedule),
 * followed by a transversal data readout.  Ancilla lane k is circuit
 * qubit n + k; inter-cell routing hops add SWAP noise on the routed
 * data qubit.  Detectors are tagged qec::kTagZ / qec::kTagX.
 */
stab::Circuit uecMemoryZ(const qec::CssCode& code,
                         const Assignment& assignment, std::size_t rounds,
                         const UecNoise& noise, const UecTimes& times = {});

} // namespace uec
} // namespace hetarch
