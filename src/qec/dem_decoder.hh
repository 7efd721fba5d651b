/**
 * @file
 * Greedy maximum-likelihood-ish decoder operating directly on a
 * detector error model.
 *
 * For the small codes run on the Universal Error Correction module
 * (Steane, Reed-Muller, color codes), single error mechanisms dominate
 * at the operating error rates.  This decoder matches a syndrome
 * against single mechanisms exactly and falls back to a greedy
 * set-cover over mechanisms for multi-error syndromes.  Unlike
 * matching decoders it handles mechanisms that flip three or more
 * detectors, which non-surface codes produce generically.
 *
 * It has one entry point, decodeSparse(), which takes the fired
 * detector list and caller-provided scratch and is const, so one
 * cached decoder serves every worker.
 */

#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "stab/dem.hh"

namespace hetarch {
namespace qec {

/** Greedy DEM-based decoder. */
class DemDecoder
{
  public:
    explicit DemDecoder(const stab::DetectorErrorModel& dem);

    /**
     * Decode a syndrome given as the ascending list of fired detector
     * ids; returns the predicted observable mask.  Const and
     * thread-safe: the residual buffers are caller-provided scratch,
     * so chunk workers can share one cached decoder and keep their
     * scratch thread-local.
     */
    std::uint32_t decodeSparse(std::span<const std::uint32_t> fired,
                               std::vector<std::uint32_t>& residual,
                               std::vector<std::uint32_t>& next) const;

  private:
    const stab::DetectorErrorModel& model;
    /** Exact single-mechanism lookup: detector signature -> best mech. */
    std::map<std::vector<std::uint32_t>, std::size_t> exact;
    /** Mechanisms sorted by descending probability (for greedy pass). */
    std::vector<std::size_t> byProbability;
};

} // namespace qec
} // namespace hetarch
