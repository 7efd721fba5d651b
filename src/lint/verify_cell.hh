/**
 * @file
 * Cell-level static verification: one report for a standard cell,
 * composing the DR1-DR4 design-rule check (cells::checkDesignRules)
 * with the circuit lint passes applied to the cell's lowered schedule.
 *
 * The lowering mirrors how cells are actually used (paper Section 3.2):
 * every device is reset, each coupling carries its two-qubit
 * interaction, readout devices run two rounds of parity extraction
 * with difference detectors, and every device is read out at the end.
 * A cell that passes verifyCell is safe to hand to characterization
 * and to the module layer.
 */

#pragma once

#include "cells/cell.hh"
#include "cells/design_rules.hh"
#include "lint/lint.hh"

namespace hetarch {
namespace lint {

/**
 * Lower a cell to the representative schedule described above.
 * Device i of the cell becomes circuit qubit i.
 */
stab::Circuit lowerCellSchedule(const cells::StandardCell& cell);

/**
 * Verify a cell: DR1-DR4 (as "cell-drc" findings; the rule number
 * prefixes the message) plus all circuit passes over the lowered
 * schedule (op indices refer to lowerCellSchedule(cell)).
 *
 * @param required_readouts measurement sites the cell's declared
 *        operations need; DR4 compares the cell against this.
 */
LintReport verifyCell(const cells::StandardCell& cell,
                      std::size_t required_readouts);

/** Convenience overload: the cell's own readout count is the need. */
LintReport verifyCell(const cells::StandardCell& cell);

} // namespace lint
} // namespace hetarch
