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
 *
 * Storage is flat, the layout Stim uses (Gidney, Quantum 5, 497,
 * 2021): one 16-byte record per op (opcode, id and offsets) over one
 * target arena and one parameter arena, so appending an op allocates
 * nothing once the three arrays have grown.  ops() reads the records
 * back as OpView values whose targets and params are spans into the
 * arenas; Op is the owning value that appendOp takes from parsers,
 * tools and tests.
 */

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
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

/** One circuit operation, owning its targets and params. */
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
 * A run of 32-bit ids inside a flat arena: an op's targets, a DEM
 * mechanism's detectors.  A span that also compares by value and
 * copies out to a vector where a caller wants one.
 */
class IdSpan : public std::span<const std::uint32_t>
{
  public:
    using std::span<const std::uint32_t>::span;
    using const_iterator = iterator; ///< gtest prints it as a container

    operator std::vector<std::uint32_t>() const { return {begin(), end()}; }

    friend bool operator==(IdSpan a, IdSpan b)
    {
        return std::ranges::equal(a, b);
    }
};

/**
 * Iterator over a flat table whose operator[] builds a view by value
 * (OpTable, DetectorErrorModel's MechanismTable).
 */
template <typename Table>
class ViewIterator
{
  public:
    ViewIterator(const Table* table, std::size_t index)
        : table(table), index(index)
    {
    }

    auto operator*() const { return (*table)[index]; }
    ViewIterator& operator++()
    {
        ++index;
        return *this;
    }
    bool operator==(const ViewIterator&) const = default;

  private:
    const Table* table;
    std::size_t index;
};

/** One stored op, viewed in place; see OpTable. */
struct OpView
{
    OpCode code;
    /** Qubit targets, or measurement-record indices for annotations. */
    IdSpan targets;
    /** Noise parameters (p, or px/py/pz). */
    std::span<const double> params;
    /** OBSERVABLE: which logical observable; DETECTOR: metadata tag. */
    std::uint32_t id = 0;
};

class Circuit;

/**
 * A circuit's ops in flat storage: one Record per op, holding where its
 * targets and params begin in the two arenas; they end where the next
 * op's begin, or at the arena's end for the last op.  Only Circuit
 * appends.
 */
class OpTable
{
  public:
    std::size_t size() const { return recs.size(); }

    OpView operator[](std::size_t i) const
    {
        const Record& r = recs[i];
        const bool last = i + 1 == recs.size();
        const std::size_t t_end =
            last ? targets.size() : recs[i + 1].targetBegin;
        const std::size_t p_end =
            last ? params.size() : recs[i + 1].paramBegin;
        return {static_cast<OpCode>(r.code),
                {targets.data() + r.targetBegin, t_end - r.targetBegin},
                {params.data() + r.paramBegin, p_end - r.paramBegin},
                r.id};
    }
    ViewIterator<OpTable> begin() const { return {this, 0}; }
    ViewIterator<OpTable> end() const { return {this, size()}; }

    bool operator==(const OpTable&) const = default;

  private:
    friend class Circuit;
    friend std::uint64_t hashCircuit(const Circuit& circuit);

    /** 16 bytes with no padding, so hashCircuit reads them as words. */
    struct Record
    {
        std::uint32_t targetBegin = 0;
        std::uint32_t paramBegin = 0;
        std::uint32_t id = 0;
        std::uint32_t code = 0; ///< an OpCode
        bool operator==(const Record&) const = default;
    };

    /**
     * Append an op.  Targets pushed onto the arena afterwards extend
     * it (annotations, whose record lists are copied in one by one).
     */
    void add(OpCode code, std::uint32_t id,
             std::initializer_list<std::uint32_t> op_targets,
             std::initializer_list<double> op_params = {});

    std::vector<Record> recs;
    std::vector<std::uint32_t> targets;
    std::vector<double> params;
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

    const OpTable& ops() const { return opTable; }

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
    /** appendOp of an owning copy of @p op, taken before any write,
        so @p op may view this circuit's own storage. */
    void appendOp(const OpView& op, const std::string& context = "");

    /** Per-detector metadata tags, indexed by detector id. */
    const std::vector<std::uint32_t>& detectorTags() const { return detTags; }

    /** Count of operations, for cost reporting. */
    std::size_t size() const { return opTable.size(); }

    /** Human-readable dump (one op per line). */
    std::string toString() const;

    /** Exact equality of register, ops and counters.  parseCircuit
        of toString() equals the circuit when its top qubit is used
        (the text carries no register size). */
    bool operator==(const Circuit&) const = default;

  private:
    void pushUnary(OpCode code, std::uint32_t q);
    void pushPair(OpCode code, std::uint32_t a, std::uint32_t b);
    void pushAnnotation(OpCode code, std::uint32_t id,
                        const std::vector<std::size_t>& meas_indices);

    std::size_t nq = 0;
    std::size_t nMeas = 0;
    std::size_t nDets = 0;
    std::size_t nObs = 0;
    OpTable opTable;
    std::vector<std::uint32_t> detTags;
};

} // namespace stab
} // namespace hetarch
