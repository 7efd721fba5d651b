/**
 * @file
 * Exact minimum-weight matcher for small syndromes, the independent
 * oracle the union-find decoder is measured against.
 *
 * Each edge of a DecodingGraph weighs log((1 - p) / p), its
 * log-likelihood ratio.  Dijkstra from every defect gives the shortest
 * distance, with the observable parity of that path, to every other
 * defect and to the virtual boundary; a subset DP over the defects
 * then pairs each defect with another or with the boundary at minimum
 * total weight.  The DP is exponential in the defect count, so decode()
 * takes at most kMaxDefects defects.  Nothing here is shared with
 * UnionFindDecoder: the matcher reads the graph through its public
 * accessors only.
 */

#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <span>
#include <utility>
#include <vector>

#include "core/logging.hh"
#include "qec/union_find.hh"

namespace hetarch {
namespace qec {

class ExactMatcher
{
  public:
    /** Largest defect count decode() accepts (4096-entry DP table). */
    static constexpr std::size_t kMaxDefects = 12;

    explicit ExactMatcher(const DecodingGraph& graph) : g(graph)
    {
        weight.reserve(g.edges().size());
        for (const auto& e : g.edges()) {
            const double p = std::clamp(e.probability, 1e-15, 0.5);
            weight.push_back(std::log((1.0 - p) / p));
        }
    }

    /**
     * Observable mask of a minimum-weight correction of the fired
     * node ids @p fired (distinct, at most kMaxDefects).  Ties keep
     * the first minimum found, so the result is deterministic.
     */
    std::uint32_t decode(std::span<const std::uint32_t> fired) const
    {
        const std::size_t k = fired.size();
        HETARCH_ASSERT(k <= kMaxDefects, "too many defects (", k,
                       ") for the exact matcher");
        if (k == 0)
            return 0;
        const std::size_t boundary = g.numNodes();

        // pair[i][j]: defect i to defect j; pair[i][k]: to the boundary.
        std::vector<std::vector<Path>> pair(k, std::vector<Path>(k + 1));
        for (std::size_t i = 0; i < k; ++i) {
            const auto paths = shortestPaths(fired[i]);
            for (std::size_t j = 0; j < k; ++j)
                pair[i][j] = paths[fired[j]];
            pair[i][k] = paths[boundary];
        }

        // best[mask]: cheapest matching of the defects in mask.  The
        // lowest defect of a mask goes to the boundary or to another
        // defect of the mask.
        std::vector<Path> best(std::size_t{1} << k);
        best[0] = {0.0, 0};
        for (std::size_t mask = 1; mask < best.size(); ++mask) {
            const std::size_t i =
                static_cast<std::size_t>(std::countr_zero(mask));
            const std::size_t rest = mask & (mask - 1);
            best[mask] = join(best[rest], pair[i][k]);
            for (std::size_t j = i + 1; j < k; ++j) {
                if (!((rest >> j) & 1))
                    continue;
                const Path via =
                    join(best[rest & ~(std::size_t{1} << j)], pair[i][j]);
                if (via.cost < best[mask].cost)
                    best[mask] = via;
            }
        }
        HETARCH_ASSERT(best.back().cost < kUnreachable,
                       "syndrome has no matching in its graph");
        return best.back().observables;
    }

  private:
    static constexpr double kUnreachable =
        std::numeric_limits<double>::infinity();

    /** A path's (or a matching's) weight and observable parity. */
    struct Path
    {
        double cost = kUnreachable;
        std::uint32_t observables = 0;
    };

    static Path join(const Path& a, const Path& b)
    {
        return {a.cost + b.cost, a.observables ^ b.observables};
    }

    /**
     * Dijkstra from node @p source over every node and the boundary
     * (slot numNodes()).  Paths end at the boundary; none passes
     * through it, since two boundary-matched defects are the DP's
     * job.
     */
    std::vector<Path> shortestPaths(std::size_t source) const
    {
        const std::size_t boundary = g.numNodes();
        std::vector<Path> dist(boundary + 1);
        using Entry = std::pair<double, std::size_t>;
        std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
        dist[source].cost = 0.0;
        queue.push({0.0, source});
        while (!queue.empty()) {
            const auto [cost, u] = queue.top();
            queue.pop();
            if (cost > dist[u].cost || u == boundary)
                continue;
            for (const auto eid : g.incidence()[u]) {
                const auto& e = g.edges()[static_cast<std::size_t>(eid)];
                const std::size_t other =
                    e.v < 0 ? boundary
                            : static_cast<std::size_t>(
                                  static_cast<std::size_t>(e.u) == u ? e.v
                                                                     : e.u);
                const double c =
                    cost + weight[static_cast<std::size_t>(eid)];
                if (c < dist[other].cost) {
                    dist[other] = {c, dist[u].observables ^ e.observables};
                    queue.push({c, other});
                }
            }
        }
        return dist;
    }

    const DecodingGraph& g;
    std::vector<double> weight; ///< per edge, log((1 - p) / p)
};

} // namespace qec
} // namespace hetarch
