/**
 * @file
 * Scenario: scaling the universal error correction module past the
 * single-USC 30-qubit limit with USC-EXT extension cells (paper
 * Fig. 8), running a distance-6 surface code that cannot fit a single
 * USC.
 *
 * Shows the tradeoff the paper describes: extension cells add capacity
 * and a second ancilla lane (shorter rounds), at the price of
 * inter-cell routing noise for checks that straddle cells.
 */

#include <iostream>

#include "core/table.hh"
#include "core/units.hh"
#include "qec/css_code.hh"
#include "qec/memory_experiment.hh"
#include "stab/circuit_stats.hh"
#include "uec/uec_circuit.hh"

int
main()
{
    using namespace hetarch;
    using namespace hetarch::units;

    const auto code = qec::makeRotatedSurface(6); // 36 data qubits
    std::cout << "Chained-UEC memory: " << code.name << " ("
              << code.n << " qubits — beyond one USC's 30)\n\n";

    uec::UecChain chain;
    chain.numUscExt = 1; // USC + one extension: 5 registers, 2 ancillas

    // Cell-local assignment: fill cell 0's registers first.
    uec::Assignment assignment;
    assignment.chain = chain;
    assignment.registerOf.resize(code.n);
    for (std::size_t q = 0; q < code.n; ++q)
        assignment.registerOf[q] = static_cast<int>(q / 10);

    const auto sched = uec::buildRoundSchedule(code, assignment);
    std::cout << "serialized round: "
              << units::toUs(sched.duration) << " us across "
              << chain.numAncillas() << " ancilla lanes\n";

    uec::UecNoise noise;
    TextTable t({"Ts(ms)", "p_L/round", "2q gates/shot"});
    for (double ts : {1.0, 10.0, 50.0}) {
        noise.ts = ts * ms;
        const auto circ = uec::uecMemoryZ(code, assignment, 2, noise);
        const auto stats = stab::analyzeCircuit(circ);
        Rng rng(11);
        const auto res = qec::runMemoryExperiment(
            circ, 2000, 2, qec::DecoderKind::GreedyDem, rng);
        t.addRow({formatFixed(ts, 0), formatFixed(res.perRound(), 4),
                  std::to_string(stats.twoQubitGates)});
    }
    t.print(std::cout);
    std::cout << "\nEach check straddling the USC/USC-EXT boundary pays "
                 "one routed SWAP hop per\ncrossing; the assignment "
                 "optimizer's job at this scale is minimizing those.\n";
    return 0;
}
