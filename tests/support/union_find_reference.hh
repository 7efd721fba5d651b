/**
 * @file
 * Dense union-find reference decoder for tests.
 *
 * unionFindReference is the allocation-per-call form of
 * UnionFindDecoder::decodeSparse: it takes a dense syndrome (one byte
 * per graph node), reads the graph only through its public accessors
 * and shares no code with the decoder's epoch arena.  It replicates
 * the growth schedule, frontier merge order and peeling order, so the
 * two must agree bit for bit on every syndrome; tests use it as the
 * independent side of that comparison.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/logging.hh"
#include "qec/union_find.hh"

namespace hetarch {
namespace qec {

/** Dense projection of a fired-detector list onto @p g's nodes. */
inline std::vector<std::uint8_t>
denseSyndrome(const DecodingGraph& g, std::span<const std::uint32_t> fired)
{
    std::vector<std::uint8_t> out(g.numNodes(), 0);
    for (const auto d : fired)
        if (const auto node = g.detectorToNode()[d]; node >= 0)
            out[static_cast<std::size_t>(node)] = 1;
    return out;
}

/**
 * Decode one dense syndrome (bit per node of @p g); returns the
 * predicted logical-observable mask of the correction.
 */
inline std::uint32_t
unionFindReference(const DecodingGraph& g,
                   const std::vector<std::uint8_t>& syndrome)
{
    const std::size_t n = g.numNodes();
    HETARCH_ASSERT(syndrome.size() == n, "syndrome size mismatch");
    const std::size_t boundary = n; // virtual boundary node id

    // --- union-find state -------------------------------------------
    std::vector<std::int32_t> parent(n + 1);
    for (std::size_t i = 0; i <= n; ++i)
        parent[i] = static_cast<std::int32_t>(i);
    std::vector<std::uint8_t> odd(n + 1, 0);
    std::vector<std::uint8_t> touches_boundary(n + 1, 0);
    touches_boundary[boundary] = 1;

    auto find = [&](std::size_t x) {
        while (parent[x] != static_cast<std::int32_t>(x)) {
            parent[x] = parent[static_cast<std::size_t>(parent[x])];
            x = static_cast<std::size_t>(parent[x]);
        }
        return x;
    };

    std::vector<std::int32_t> grown(g.edges().size(), 0);
    // Frontier edge lists per root and cluster member lists.
    std::vector<std::vector<std::int32_t>> frontier(n + 1);
    std::vector<std::vector<std::int32_t>> members(n + 1);
    std::vector<std::uint8_t> materialized(n + 1, 0);

    std::vector<std::size_t> worklist;
    for (std::size_t v = 0; v < n; ++v) {
        members[v] = {static_cast<std::int32_t>(v)};
        if (syndrome[v]) {
            odd[v] = 1;
            frontier[v] = g.incidence()[v];
            materialized[v] = 1;
            worklist.push_back(v);
        }
    }
    members[boundary] = {static_cast<std::int32_t>(boundary)};
    materialized[boundary] = 1;

    auto unite = [&](std::size_t a, std::size_t b) {
        std::size_t ra = find(a), rb = find(b);
        if (ra == rb)
            return ra;
        // Union by member count.
        if (members[ra].size() < members[rb].size())
            std::swap(ra, rb);
        parent[rb] = static_cast<std::int32_t>(ra);
        odd[ra] ^= odd[rb];
        touches_boundary[ra] |= touches_boundary[rb];
        members[ra].insert(members[ra].end(), members[rb].begin(),
                           members[rb].end());
        members[rb].clear();
        frontier[ra].insert(frontier[ra].end(), frontier[rb].begin(),
                            frontier[rb].end());
        frontier[rb].clear();
        return ra;
    };

    // --- growth ------------------------------------------------------
    // Round-robin: grow every active cluster's frontier by one unit
    // until all clusters are neutral (even parity or boundary-touching).
    bool progress = true;
    while (progress) {
        progress = false;
        std::vector<std::size_t> roots;
        for (auto v : worklist) {
            const auto r = find(v);
            if (odd[r] && !touches_boundary[r])
                roots.push_back(r);
        }
        std::sort(roots.begin(), roots.end());
        roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
        if (roots.empty())
            break;

        for (auto r : roots) {
            if (find(r) != r || !odd[r] || touches_boundary[r])
                continue; // merged or neutralized earlier this sweep
            std::vector<std::int32_t> keep;
            auto edges_now = frontier[r];
            frontier[r].clear();
            for (auto eid : edges_now) {
                const auto& e = g.edges()[static_cast<std::size_t>(eid)];
                if (grown[static_cast<std::size_t>(eid)] >= e.weight) {
                    continue; // already fully grown and merged
                }
                grown[static_cast<std::size_t>(eid)] += 2;
                progress = true;
                if (grown[static_cast<std::size_t>(eid)] >= e.weight) {
                    const std::size_t a = static_cast<std::size_t>(e.u);
                    const std::size_t b =
                        e.v < 0 ? boundary : static_cast<std::size_t>(e.v);
                    // Materialize far endpoints' incident edges.
                    for (std::size_t endpoint : {a, b}) {
                        if (endpoint != boundary &&
                            !materialized[endpoint]) {
                            materialized[endpoint] = 1;
                            const auto er = find(endpoint);
                            frontier[er].insert(
                                frontier[er].end(),
                                g.incidence()[endpoint].begin(),
                                g.incidence()[endpoint].end());
                        }
                    }
                    const auto nr = unite(unite(a, b), r);
                    worklist.push_back(nr);
                } else {
                    keep.push_back(eid);
                }
            }
            const auto r2 = find(r);
            frontier[r2].insert(frontier[r2].end(), keep.begin(),
                                keep.end());
        }
    }

    // --- peeling ------------------------------------------------------
    // For each cluster, build a spanning forest of fully grown edges
    // and peel from the leaves, emitting correction edges.
    std::uint32_t correction = 0;
    std::vector<std::uint8_t> defect(n + 1, 0);
    for (std::size_t v = 0; v < n; ++v)
        defect[v] = syndrome[v];

    // Adjacency restricted to fully grown edges.
    std::vector<std::size_t> cluster_of(n + 1, SIZE_MAX);
    std::vector<std::size_t> roots;
    for (std::size_t v = 0; v <= n; ++v) {
        if (find(v) == v && !members[v].empty())
            roots.push_back(v);
    }
    for (auto r : roots)
        for (auto m : members[r])
            cluster_of[static_cast<std::size_t>(m)] = r;

    std::vector<std::vector<std::pair<std::size_t, std::size_t>>> adj(
        n + 1); // node -> (neighbor, edge id)
    for (std::size_t eid = 0; eid < g.edges().size(); ++eid) {
        if (grown[eid] < g.edges()[eid].weight)
            continue;
        const auto& e = g.edges()[eid];
        const std::size_t a = static_cast<std::size_t>(e.u);
        const std::size_t b =
            e.v < 0 ? boundary : static_cast<std::size_t>(e.v);
        adj[a].push_back({b, eid});
        adj[b].push_back({a, eid});
    }

    std::vector<std::uint8_t> visited(n + 1, 0);
    for (auto r : roots) {
        // Pick a tree root: boundary if in this cluster, else r itself.
        std::size_t tree_root = r;
        if (touches_boundary[r]) {
            for (auto m : members[r]) {
                if (static_cast<std::size_t>(m) == boundary) {
                    tree_root = boundary;
                    break;
                }
            }
        }
        if (visited[tree_root])
            continue;
        // BFS spanning tree.
        std::vector<std::size_t> order;
        std::vector<std::pair<std::size_t, std::size_t>> parent_edge(
            n + 1, {SIZE_MAX, SIZE_MAX});
        visited[tree_root] = 1;
        order.push_back(tree_root);
        for (std::size_t head = 0; head < order.size(); ++head) {
            const auto u = order[head];
            for (const auto& [w, eid] : adj[u]) {
                if (!visited[w]) {
                    visited[w] = 1;
                    parent_edge[w] = {u, eid};
                    order.push_back(w);
                }
            }
        }
        // Peel leaves-first (reverse BFS order).
        for (std::size_t k = order.size(); k-- > 1;) {
            const auto v = order[k];
            if (defect[v]) {
                const auto [p, eid] = parent_edge[v];
                correction ^= g.edges()[eid].observables;
                defect[v] = 0;
                defect[p] ^= 1;
            }
        }
        defect[boundary] = 0; // boundary absorbs anything
    }
    return correction;
}

} // namespace qec
} // namespace hetarch
