/**
 * @file
 * Static verification walkthrough: lint a builder-generated surface
 * circuit, a deliberately broken hand-built circuit, and a standard
 * cell -- the three levels the hetarch::lint subsystem covers -- then
 * run the fault-path analyzer to certify the surface circuit's
 * distance and union-bound error budget without a single shot.
 *
 * Build and run:
 *   cmake --build build --target example_lint_demo
 *   ./build/examples/example_lint_demo
 */

#include <iostream>

#include "cells/standard_cells.hh"
#include "lint/faults.hh"
#include "lint/lint.hh"
#include "lint/verify_cell.hh"
#include "qec/surface_circuit.hh"
#include "stab/circuit.hh"

int
main()
{
    using namespace hetarch;

    // --- 1. a builder circuit is clean by construction ----------------
    const auto surface = qec::surfaceMemoryZ(3, 3, qec::CircuitNoise{});
    const auto surface_report = lint::lintCircuit(surface);
    std::cout << "surfaceMemoryZ(d=3): "
              << (surface_report.cleanStrict() ? "clean" : "NOT clean")
              << " (" << surface.ops().size() << " ops, "
              << surface.numDetectors() << " detectors)\n";

    // --- 2. a hand-built circuit with three lint findings -------------
    // appendOp and parseCircuit refuse malformed ops outright (bad
    // arity, p > 1, dangling record refs), so lint reports what a
    // well-formed circuit can still get wrong.
    stab::Circuit broken;
    broken.h(0);
    const auto m = broken.measure(0);
    broken.measure(0);                   // redundant measurement
    broken.observableInclude(0, {m, m}); // the pair cancels out
    broken.detector({m});                // measured |+>: a coin flip
    std::cout << "\nhand-built circuit:\n"
              << lint::lintCircuit(broken).toString();

    // --- 3. cell-level verification (DRC + lowered schedule) ----------
    for (const auto& cell : cells::table2Cells()) {
        const auto report = lint::verifyCell(cell);
        std::cout << "\ncell " << cell.name() << ": "
                  << (report.cleanStrict() ? "verified" : "NOT verified")
                  << " (" << report.findings.size() << " findings)";
    }
    std::cout << "\n\ndeclaring that the USC needs one fewer readout "
                 "than it carries (breaks DR4):\n";
    const auto usc = cells::table2Cells().back();
    std::cout << lint::verifyCell(usc, usc.readoutCount() - 1)
                     .toString();

    // --- 4. fault-path analysis: certify the distance statically ------
    const auto faults = lint::analyzeCircuitFaults(surface);
    std::cout << "\nfault analysis of surfaceMemoryZ(d=3): "
              << faults.numMechanisms << " mechanisms over "
              << faults.numDetectors << " detectors\n";
    for (const auto& o : faults.observables) {
        std::cout << "  observable " << o.observable
                  << ": certified distance " << o.distance
                  << (o.graphlike ? "" : " (upper bound)")
                  << ", union bound " << o.unionBound
                  << " at weight " << o.unionBoundWeight
                  << ", certificate {";
        for (std::size_t i = 0; i < o.certificate.mechanisms.size();
             ++i)
            std::cout << (i ? ", " : "") << o.certificate.mechanisms[i];
        std::cout << "}\n";
    }
    return 0;
}
