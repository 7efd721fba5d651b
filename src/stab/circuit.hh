/**
 * @file
 * Clifford circuit intermediate representation with Pauli noise,
 * measurement, detector and observable annotations.
 *
 * This is the input language of both simulators (TableauSimulator,
 * FrameSimulator) and of the detector-error-model extractor.  The role
 * it plays in HetArch mirrors the role Stim circuits play in the paper:
 * standard-cell schedules are lowered to this IR, sampled under
 * circuit-level noise, and decoded.
 *
 * Detectors must be parities of measurements that are deterministic in
 * the absence of noise (the usual detector condition); the frame
 * sampler and DEM extraction rely on it.  stab::findNondeterminism
 * decides it exactly, buildDetectorErrorModel refuses a circuit that
 * breaks it, and TableauSimulator::checkDetectorsDeterministic is the
 * sampled oracle.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace hetarch {
namespace stab {

/**
 * Register cap of Circuit::appendOp: qubit targets must lie below it.
 * Far above any builder's register (the d = 25 surface memory has
 * 1,249 qubits), and small enough that a hostile index cannot ask a
 * simulator for a multi-gigabyte register.
 */
inline constexpr std::size_t kMaxQubits = std::size_t{1} << 16;

/** Operation codes of the circuit IR. */
enum class OpCode : std::uint8_t
{
    H,          ///< Hadamard
    S,          ///< phase gate
    SDG,        ///< inverse phase gate
    X,          ///< Pauli X
    Y,          ///< Pauli Y
    Z,          ///< Pauli Z
    CX,         ///< controlled-X; targets in (control, target) pairs
    CZ,         ///< controlled-Z; targets in pairs
    SWAP,       ///< swap; targets in pairs
    M,          ///< Z-basis measurement, appends to the record
    R,          ///< reset to |0>
    MR,         ///< measure then reset
    X_ERROR,    ///< X with probability p on each target
    Z_ERROR,    ///< Z with probability p on each target
    PAULI1,     ///< Pauli channel (px, py, pz) on each target
    DEPOL1,     ///< single-qubit depolarizing(p) on each target
    DEPOL2,     ///< two-qubit depolarizing(p); targets in pairs
    DETECTOR,   ///< parity of referenced measurements (deterministic)
    OBSERVABLE, ///< logical observable accumulation
};

/** Mnemonic of an opcode, as emitted by Circuit::toString. */
const char* opCodeName(OpCode code);

/** One circuit operation. */
struct Op
{
    OpCode code;
    /** Qubit targets, or measurement-record indices for annotations. */
    std::vector<std::uint32_t> targets;
    /** Noise parameters (p, or px/py/pz). */
    std::vector<double> params;
    /** OBSERVABLE: which logical observable; DETECTOR: metadata tag. */
    std::uint32_t id = 0;

    /** Exact comparison; no tolerance on params. */
    bool operator==(const Op&) const = default;
};

/**
 * A Clifford+noise circuit, valid by construction: the fluent helpers
 * and appendOp are the only ways to add an op, and both refuse
 * malformed ones.  Ops hold canonical one- or two-qubit targets and
 * no zero-probability noise.  Qubits are dense indices [0, numQubits).
 * Valid does not mean deterministic: that is a property of the whole
 * circuit, which findNondeterminism decides (stab/dem.hh).
 */
class Circuit
{
  public:
    explicit Circuit(std::size_t num_qubits = 0);

    std::size_t numQubits() const { return nq; }
    /** Grow the register if needed so that @p q is a valid qubit. */
    void ensureQubit(std::size_t q);

    /** Number of measurements appended so far. */
    std::size_t numMeasurements() const { return nMeas; }
    /** Number of detectors declared so far. */
    std::size_t numDetectors() const { return nDets; }
    /** One past the highest observable id used. */
    std::size_t numObservables() const { return nObs; }

    const std::vector<Op>& ops() const { return opList; }

    // --- unitaries ---------------------------------------------------
    void h(std::uint32_t q);
    void s(std::uint32_t q);
    void sdg(std::uint32_t q);
    void x(std::uint32_t q);
    void y(std::uint32_t q);
    void z(std::uint32_t q);
    void cx(std::uint32_t control, std::uint32_t target);
    void cz(std::uint32_t a, std::uint32_t b);
    void swap(std::uint32_t a, std::uint32_t b);

    // --- measurement / reset ------------------------------------------
    /** Measure in Z; returns the measurement-record index. */
    std::size_t measure(std::uint32_t q);
    void reset(std::uint32_t q);
    /** Measure-and-reset; returns the record index. */
    std::size_t measureReset(std::uint32_t q);

    // --- noise ---------------------------------------------------------
    void xError(std::uint32_t q, double p);
    void zError(std::uint32_t q, double p);
    void pauliChannel1(std::uint32_t q, double px, double py, double pz);
    void depolarize1(std::uint32_t q, double p);
    void depolarize2(std::uint32_t a, std::uint32_t b, double p);

    // --- annotations ----------------------------------------------------
    /**
     * Declare a detector as the parity of the given measurement-record
     * indices.  @p tag is free metadata (used by decoders to group
     * detectors into X/Z graphs).  Returns the detector index.
     */
    std::size_t detector(const std::vector<std::size_t>& meas_indices,
                         std::uint32_t tag = 0);

    /** Fold the given measurements into logical observable @p index. */
    void observableInclude(std::uint32_t index,
                           const std::vector<std::size_t>& meas_indices);

    /** Append another circuit (qubit indices shared). */
    void append(const Circuit& other);

    /**
     * Validating raw append: checks target arity (pair ops take an
     * even, stim-style target list and are split into canonical
     * two-target ops), qubit targets against kMaxQubits, param
     * counts, probability ranges, and measurement-record references,
     * then dispatches to the typed helpers.  Malformed ops are
     * rejected with a clear diagnostic (fatal), prefixed with
     * @p context (e.g. "line 12: ") when given.
     * The only way to build a circuit from raw ops, trusted or not
     * (parsers, tools, tests).
     */
    void appendOp(const Op& op, const std::string& context = "");

    /** Per-detector metadata tags, indexed by detector id. */
    const std::vector<std::uint32_t>& detectorTags() const { return detTags; }

    /** Count of operations, for cost reporting. */
    std::size_t size() const { return opList.size(); }

    /** Human-readable dump (one op per line). */
    std::string toString() const;

    /** Exact equality of register, ops and counters.  parseCircuit
        of toString() equals the circuit when its top qubit is used
        (the text carries no register size). */
    bool operator==(const Circuit&) const = default;

  private:
    void pushUnary(OpCode code, std::uint32_t q);
    void pushPair(OpCode code, std::uint32_t a, std::uint32_t b);

    std::size_t nq = 0;
    std::size_t nMeas = 0;
    std::size_t nDets = 0;
    std::size_t nObs = 0;
    std::vector<Op> opList;
    std::vector<std::uint32_t> detTags;
};

} // namespace stab
} // namespace hetarch
