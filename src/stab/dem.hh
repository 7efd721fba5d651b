/**
 * @file
 * Detector error model (DEM) extraction.
 *
 * A DEM reduces a noisy Clifford circuit to a list of independent
 * *error mechanisms*: each mechanism fires with some probability and
 * flips a known set of detectors and logical observables.  Decoders
 * operate on the DEM rather than the circuit.
 *
 * Extraction runs a single reverse pass over the circuit, maintaining
 * for every qubit the set of detectors/observables sensitive to an X
 * or Z error at the current position (Pauli sensitivity sets), the
 * same trick Stim uses.  Each noise op emits its Pauli branches' sets,
 * and identical sets merge into one mechanism.  The distinct sets lie
 * back to back in one flat id arena behind a 64-bit hash index, so an
 * emission is one probe and allocates nothing once warm; they are
 * sorted once at the end, straight into the model's CSR arrays
 * (MechanismTable: a probability, an observable mask and a detector
 * offset per mechanism over one detector-id array).  Consumers read
 * mechanisms as ErrorMechanism views into those arrays.
 *
 * The output is fixed bit for bit.  Each set combines its
 * probabilities as q(1 - p) + p(1 - q) in emission order, and the
 * mechanisms come out in lexicographic order of their sets (detector
 * ids, then observable ids).
 *
 * The same pass decides detector determinism exactly: an annotation
 * still sensitive to a Z error right after a Z-basis collapse of that
 * qubit (M, MR, R, or the initial |0>) is a fair coin.
 */

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/rng.hh"
#include "stab/circuit.hh"

namespace hetarch {
namespace stab {

/** Observable ids index one 32-bit mask (ErrorMechanism::observables). */
inline constexpr std::size_t kMaxObservables = 32;

/** One independent error mechanism, viewed in place; see MechanismTable. */
struct ErrorMechanism
{
    double probability = 0.0;
    /** Sorted detector ids flipped when this mechanism fires. */
    IdSpan detectors;
    /** Bitmask of logical observables flipped. */
    std::uint32_t observables = 0;
};

/**
 * A DEM's mechanisms in CSR form: a probability, an observable mask
 * and a detector offset per mechanism over one detector-id array, so a
 * model of any size is four allocations.  Mechanism i's detectors
 * begin at detectorBegin[i] and end where mechanism i + 1's begin, or
 * at the array's end for the last one.
 */
class MechanismTable
{
  public:
    std::size_t size() const { return probs.size(); }
    bool empty() const { return probs.empty(); }

    ErrorMechanism operator[](std::size_t i) const
    {
        const std::size_t begin = detectorBegin[i];
        const std::size_t end =
            i + 1 < size() ? detectorBegin[i + 1] : detectorIds.size();
        return {probs[i], {detectorIds.data() + begin, end - begin},
                masks[i]};
    }
    ViewIterator<MechanismTable> begin() const { return {this, 0}; }
    ViewIterator<MechanismTable> end() const { return {this, size()}; }

    /** Every mechanism's probability, in mechanism order. */
    std::span<const double> probabilities() const { return probs; }

    /** Room for @p mechanisms mechanisms and @p ids detector ids. */
    void reserve(std::size_t mechanisms, std::size_t ids);
    /** Append a mechanism; @p detectors must be sorted. */
    void push_back(double probability,
                   std::span<const std::uint32_t> detectors,
                   std::uint32_t observables);

  private:
    std::vector<double> probs;
    std::vector<std::uint32_t> masks;
    std::vector<std::uint32_t> detectorBegin;
    std::vector<std::uint32_t> detectorIds;
};

/** The full detector error model of a circuit. */
struct DetectorErrorModel
{
    std::size_t numDetectors = 0;
    std::size_t numObservables = 0;
    MechanismTable mechanisms;

    /**
     * Sample one shot: fires each mechanism independently, returning
     * the detector event vector and observable mask.
     */
    std::pair<std::vector<std::uint8_t>, std::uint32_t>
    sample(Rng& rng) const;

    /** Sum of mechanism probabilities (diagnostic). */
    double totalErrorWeight() const;

    /**
     * How many mechanisms flip each detector.  A zero entry is a dead
     * detector: no modeled error can ever fire it, so it contributes
     * nothing to decoding (the fault analyzer flags these).
     */
    std::vector<std::uint32_t> detectorFlipCounts() const;

    /**
     * Combined effect of firing exactly the mechanisms in @p indices:
     * XOR of their detector sets and observable masks.  Order does not
     * matter; firing the same mechanism twice cancels.  This is how a
     * fault-path certificate is checked: a valid undetected logical
     * fault leaves every detector at 0 with the observable bit set.
     */
    std::pair<std::vector<std::uint8_t>, std::uint32_t>
    applyMechanisms(const std::vector<std::uint32_t>& indices) const;
};

/**
 * Extract the detector error model of @p circuit (at most 32
 * observables).  A circuit with a nondeterministic detector or
 * observable is refused (HETARCH_FATAL naming the first one
 * findNondeterminism reports), not given a DEM.
 */
DetectorErrorModel buildDetectorErrorModel(const Circuit& circuit);

/** Nondeterminism::collapseOp of a qubit's initial |0>. */
inline constexpr std::size_t kInitialState = static_cast<std::size_t>(-1);

/** A detector or observable whose noiseless parity is random. */
struct Nondeterminism
{
    bool observable = false; ///< an observable, else a detector
    std::uint32_t index = 0; ///< detector or observable index
    std::uint32_t qubit = 0; ///< the collapsed qubit
    /** The anticommuting M/MR/R nearest the end, or kInitialState. */
    std::size_t collapseOp = kInitialState;

    /** "detector 3 is not deterministic: its parity anticommutes ..." */
    std::string message() const;
};

/**
 * The detectors, then the observables, of @p circuit whose noiseless
 * parity is random, each ascending.  Exact: buildDetectorErrorModel's
 * reverse walk with no noise branches.
 */
std::vector<Nondeterminism> findNondeterminism(const Circuit& circuit);

} // namespace stab
} // namespace hetarch
