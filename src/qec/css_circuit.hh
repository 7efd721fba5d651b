/**
 * @file
 * Memory-Z experiments for arbitrary CSS codes: the detector record
 * that every CSS memory builder shares (the code-capacity builder here,
 * the UEC and lattice builders in src/uec/), and the simple
 * code-capacity syndrome-extraction circuit used for decoder
 * validation and as the noiseless-extraction baseline.
 */

#pragma once

#include <span>
#include <vector>

#include "qec/css_code.hh"
#include "stab/circuit.hh"

namespace hetarch {
namespace qec {

/**
 * The detector record of a memory-Z experiment on a CSS code.  Checks
 * are numbered Z checks first, then X checks.  The data start in
 * |0..0>, so a Z check's round detector compares each measurement with
 * its previous one and its first measurement stands alone; an X
 * check's round detectors start from its second measurement.  close()
 * reads the data out transversally, closes every Z check against that
 * readout and declares the logical-Z observable.  Detectors are tagged
 * kTagZ / kTagX.
 */
class MemoryZRecord
{
  public:
    MemoryZRecord(stab::Circuit& circ, const CssCode& code);

    /**
     * Measure and reset check @p check's ancilla @p anc and emit the
     * check's round detector.
     */
    void measureCheck(std::uint32_t anc, std::size_t check);

    /**
     * Transversal Z readout, closing Z-check detectors and the logical-Z
     * observable.  Data qubit q is circuit qubit @p data_qubits[q], or q
     * itself when @p data_qubits is empty.
     */
    void close(std::span<const int> data_qubits = {});

  private:
    stab::Circuit& circ_;
    const CssCode& code_;
    /** Each check's last ancilla measurement record. */
    std::vector<std::size_t> last_;
};

/**
 * Memory-Z code-capacity experiment: data qubits start in |0..0>, each
 * round applies independent X errors with probability @p p_x (and
 * optional Z errors @p p_z, which are invisible to the Z memory but
 * exercise X checks), followed by perfect syndrome extraction of the
 * Z checks.  X checks are extracted too (needed for CSS codes whose X
 * syndrome informs Y-error decoding) starting from round 2.
 * Ends with a transversal Z readout and the logical-Z observable.
 *
 * Detectors are tagged kTagZ / kTagX.
 */
stab::Circuit codeCapacityMemoryZ(const CssCode& code, std::size_t rounds,
                                  double p_x, double p_z = 0.0);

} // namespace qec
} // namespace hetarch
