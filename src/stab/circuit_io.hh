/**
 * @file
 * Text serialization for circuits: parse the format Circuit::toString
 * emits (a Stim-like line-per-op dialect), so circuits can be stored
 * in files, diffed, and shared between tools.
 *
 * Grammar (one op per line, '#' starts a comment):
 *   H 0            S 1            CX 0 1         SWAP 2 3
 *   M 0            R 1            MR 2
 *   X_ERROR p=0.01 0
 *   PAULI_CHANNEL_1 p=0.01 p=0.02 p=0.03 4
 *   DEPOLARIZE2 p=0.001 0 1
 *   DETECTOR 3 4            # measurement-record indices
 *   OBSERVABLE_INCLUDE(0) 5
 *
 * Stim-style broadcast target lists are accepted on input: single-qubit
 * ops take any number of targets ("M 0 1 2") and two-qubit ops an even
 * number of pair targets ("CX 0 1 2 3"); both are split into canonical
 * one/two-target ops.  All validation happens at parse time with
 * line-numbered diagnostics: unknown ops, wrong arity, self-paired
 * two-qubit ops, noise probabilities outside [0,1] (including
 * PAULI_CHANNEL_1 triples summing past 1), and DETECTOR /
 * OBSERVABLE_INCLUDE references to measurements that do not exist yet.
 */

#pragma once

#include <iosfwd>
#include <string>

#include "stab/circuit.hh"

namespace hetarch {
namespace stab {

/**
 * Parse a circuit from text.  Fatal on malformed input (unknown op,
 * bad argument counts, out-of-range record references).
 */
Circuit parseCircuit(const std::string& text);

/**
 * Non-fatal parseCircuit for long-running callers (the job service's
 * admission validation): on success @p out holds the circuit and true
 * is returned; on malformed input @p error holds the line-numbered
 * diagnostic and false is returned.  Same grammar and validation as
 * parseCircuit — implemented by capturing its fatal path
 * (ScopedFatalCapture), so the two can never drift apart.
 */
bool tryParseCircuit(const std::string& text, Circuit& out,
                     std::string& error);

} // namespace stab
} // namespace hetarch
