#include "qec/dem_decoder.hh"

#include <algorithm>

namespace hetarch {
namespace qec {

DemDecoder::DemDecoder(const stab::DetectorErrorModel& dem)
    : model(dem)
{
    for (std::size_t i = 0; i < dem.mechanisms.size(); ++i) {
        const auto& m = dem.mechanisms[i];
        if (m.detectors.empty())
            continue;
        auto [it, inserted] = exact.try_emplace(m.detectors, i);
        if (!inserted &&
            dem.mechanisms[it->second].probability < m.probability) {
            it->second = i;
        }
        byProbability.push_back(i);
    }
    std::sort(byProbability.begin(), byProbability.end(),
              [&](std::size_t a, std::size_t b) {
                  return dem.mechanisms[a].probability >
                         dem.mechanisms[b].probability;
              });
}

std::uint32_t
DemDecoder::decodeSparse(std::span<const std::uint32_t> fired,
                         std::vector<std::uint32_t>& residual,
                         std::vector<std::uint32_t>& next) const
{
    residual.assign(fired.begin(), fired.end());
    if (residual.empty())
        return 0;

    std::uint32_t prediction = 0;

    // Greedy cover: repeatedly explain as much of the residual
    // syndrome as possible, preferring exact matches, then the
    // highest-probability mechanism that strictly shrinks the residual.
    for (int guard = 0; guard < 64 && !residual.empty(); ++guard) {
        if (auto it = exact.find(residual); it != exact.end()) {
            prediction ^= model.mechanisms[it->second].observables;
            return prediction;
        }
        // Best mechanism: maximize (overlap - outside), tie-break by
        // probability (byProbability order).
        std::size_t best = SIZE_MAX;
        long best_score = 0;
        for (auto mi : byProbability) {
            const auto& mech = model.mechanisms[mi];
            long overlap = 0;
            for (auto d : mech.detectors) {
                if (std::binary_search(residual.begin(), residual.end(),
                                       d))
                    ++overlap;
            }
            const long outside =
                static_cast<long>(mech.detectors.size()) - overlap;
            const long score = overlap - outside;
            if (score > best_score) {
                best_score = score;
                best = mi;
            }
        }
        if (best == SIZE_MAX)
            break; // nothing helps; give up with current prediction
        const auto& mech = model.mechanisms[best];
        prediction ^= mech.observables;
        next.clear();
        std::set_symmetric_difference(residual.begin(), residual.end(),
                                      mech.detectors.begin(),
                                      mech.detectors.end(),
                                      std::back_inserter(next));
        std::swap(residual, next);
    }
    return prediction;
}

} // namespace qec
} // namespace hetarch
