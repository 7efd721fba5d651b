/**
 * @file
 * Data-qubit-to-Register assignment and serialized check scheduling
 * for the Universal Error Correction module (paper Section 4.2.2).
 *
 * The USC holds up to three Register cells (10 modes each) around one
 * readout ancilla.  Stabilizer checks execute *serially* through the
 * ancilla; qubits in different Registers can be swapped in and out
 * concurrently, so a good assignment spreads each check's support
 * across Registers to pipeline the storage SWAPs against the ancilla
 * CNOTs.  USC-EXT cells chain more Registers and ancillas onto the
 * USC (UecChain); one scheduler serves the single USC and any chain.
 * The paper uses a brute-force assignment search; we use the same cost
 * function with a deterministic greedy seed plus local search, which
 * reaches the same optima for the paper's code sizes.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "core/units.hh"
#include "qec/css_code.hh"

namespace hetarch {
namespace uec {

/** Operation timing of the UEC hardware. */
struct UecTimes
{
    double swap = 100.0;               ///< storage<->compute SWAP, ns
    double cnot = 100.0;               ///< compute<->ancilla CNOT, ns
    double h = 40.0;                   ///< ancilla basis change, ns
    double measure = 1.0 * units::us;  ///< ancilla readout, ns
};

/** Modes of one Register cell. */
inline constexpr int kModesPerRegister = 10;

/**
 * The UEC hardware: a USC (three Registers, one ancilla) extended by
 * numUscExt USC-EXT cells (two Registers and one ancilla each,
 * paper Fig. 8), raising capacity to (3 + 2k) x 10 qubits.  The
 * default is the single USC.  Register r belongs to cell 0 when r < 3,
 * else cell (r - 3) / 2 + 1; each inter-cell hop of a check's routed
 * CNOT costs one extra SWAP on the compute chain.
 */
struct UecChain
{
    int numUscExt = 0;

    int numRegisters() const { return 3 + 2 * numUscExt; }
    int numAncillas() const { return 1 + numUscExt; }
    /** Which cell a register belongs to. */
    int cellOfRegister(int reg) const
    {
        return reg < 3 ? 0 : (reg - 3) / 2 + 1;
    }
};

/** Assignment of each data qubit to a Register of a chain. */
struct Assignment
{
    std::vector<int> registerOf; ///< data qubit -> register id
    UecChain chain;
};

/** One timed hardware operation of the serialized schedule. */
struct TimedOp
{
    enum class Kind : std::uint8_t
    {
        SwapOut,    ///< data qubit storage -> register compute
        Cnot,       ///< register compute <-> ancilla
        SwapIn,     ///< data qubit back to storage
        AncPrep,    ///< ancilla reset (+H for X checks)
        AncMeasure, ///< ancilla readout (+H for X checks)
    };
    Kind kind;
    double start = 0.0;
    double end = 0.0;
    std::uint32_t dataQubit = 0; ///< for SwapOut/Cnot/SwapIn
    int checkIndex = 0;          ///< global check id (Z checks first)
    bool isXCheck = false;
    int ancilla = 0;             ///< ancilla lane (USC=0, USC-EXT j=j+1)
    int routeHops = 0;           ///< inter-cell hops for this Cnot
};

/** A full serial round schedule. */
struct RoundSchedule
{
    std::vector<TimedOp> ops;  ///< sorted by start time
    double duration = 0.0;     ///< full round, ns
    /** Total time each data qubit spends out of storage per round. */
    std::vector<double> outOfStorage;
};

/**
 * Build the resource-constrained serialized schedule of one full round
 * (all Z checks then all X checks) on the assignment's chain.  Each
 * check runs on the ancilla of its home cell, the one holding most of
 * its support (the lowest on a tie); its qubits take turns over their
 * Registers so the SWAPs of one pipeline against the CNOTs of the
 * others, and a qubit from another cell rides one SWAP per cell of
 * distance each way.  Checks on different ancillas run concurrently.
 * Fatal when a Register holds more than kModesPerRegister qubits.
 */
RoundSchedule buildRoundSchedule(const qec::CssCode& code,
                                 const Assignment& assignment,
                                 const UecTimes& times = {});

/** Round-robin seed assignment (also the baseline for tests). */
Assignment roundRobinAssignment(const qec::CssCode& code,
                                const UecChain& chain = {});

/**
 * Optimize the single-USC assignment by greedy seeding plus
 * pairwise-swap local search minimizing round duration (primary) and
 * total out-of-storage time (secondary).  Deterministic.
 */
Assignment optimizeAssignment(const qec::CssCode& code,
                              const UecTimes& times = {});

} // namespace uec
} // namespace hetarch
