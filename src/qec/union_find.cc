#include "qec/union_find.hh"

#include <algorithm>
#include <cmath>
#include <map>

#include "core/logging.hh"

namespace hetarch {
namespace qec {

namespace {

/** Combine probabilities of two independent mechanisms with the same
 * effect: exactly one of them firing. */
double
combineP(double a, double b)
{
    return a * (1.0 - b) + b * (1.0 - a);
}

std::int32_t
weightFromProbability(double p)
{
    p = std::clamp(p, 1e-12, 0.5);
    const double llr = std::log((1.0 - p) / p);
    const auto w = static_cast<std::int32_t>(std::lround(llr));
    return 2 * std::clamp(w, 1, 30);
}

} // namespace

DecodingGraph
DecodingGraph::fromDem(const stab::DetectorErrorModel& dem,
                       const std::vector<std::uint32_t>& tags,
                       std::uint32_t wanted_tag, bool carries_observables)
{
    HETARCH_ASSERT(tags.size() == dem.numDetectors,
                   "tag list size mismatch");
    DecodingGraph g;
    g.det2node.assign(dem.numDetectors, -1);
    for (std::size_t d = 0; d < dem.numDetectors; ++d) {
        if (tags[d] == wanted_tag)
            g.det2node[d] = static_cast<std::int32_t>(g.nNodes++);
    }

    // key = (u, v) with boundary encoded as -1; candidate obs variants
    // tracked with their probabilities so the dominant one wins.
    struct Candidate
    {
        double p = 0.0;
        std::map<std::uint32_t, double> byObs;
    };
    std::map<std::pair<std::int32_t, std::int32_t>, Candidate> edge_map;

    auto add_edge = [&](std::int32_t u, std::int32_t v, double p,
                        std::uint32_t obs) {
        if (u > v)
            std::swap(u, v);
        auto& cand = edge_map[{u, v}];
        cand.p = combineP(cand.p, p);
        cand.byObs[obs] += p;
    };

    std::vector<const stab::ErrorMechanism*> deferred;
    for (const auto& mech : dem.mechanisms) {
        std::vector<std::int32_t> nodes;
        for (auto d : mech.detectors)
            if (g.det2node[d] >= 0)
                nodes.push_back(g.det2node[d]);
        if (nodes.empty())
            continue;
        const std::uint32_t obs =
            carries_observables ? mech.observables : 0;
        if (nodes.size() == 1) {
            add_edge(-1, nodes[0], mech.probability, obs);
        } else if (nodes.size() == 2) {
            add_edge(nodes[0], nodes[1], mech.probability, obs);
        } else {
            deferred.push_back(&mech);
        }
    }

    // Decompose >2-detector mechanisms onto existing elementary edges.
    auto has_key = [&](std::int32_t u, std::int32_t v) {
        if (u > v)
            std::swap(u, v);
        return edge_map.count({u, v}) > 0;
    };
    for (const auto* mech : deferred) {
        std::vector<std::int32_t> rest;
        for (auto d : mech->detectors)
            if (g.det2node[d] >= 0)
                rest.push_back(g.det2node[d]);
        bool clean = true;
        while (rest.size() >= 2) {
            bool found = false;
            for (std::size_t i = 0; i < rest.size() && !found; ++i) {
                for (std::size_t j = i + 1; j < rest.size() && !found;
                     ++j) {
                    if (has_key(rest[i], rest[j])) {
                        // Reuse the elementary edge's own observable
                        // mask: the decomposition parity works out
                        // because the elementary mechanisms exist.
                        auto& cand = edge_map[{std::min(rest[i], rest[j]),
                                               std::max(rest[i], rest[j])}];
                        cand.p = combineP(cand.p, mech->probability);
                        rest.erase(rest.begin() +
                                   static_cast<std::ptrdiff_t>(j));
                        rest.erase(rest.begin() +
                                   static_cast<std::ptrdiff_t>(i));
                        found = true;
                    }
                }
            }
            if (!found) {
                // Fallback: pair the two closest ids.
                add_edge(rest[0], rest[1], mech->probability, 0);
                rest.erase(rest.begin(), rest.begin() + 2);
                clean = false;
            }
        }
        if (rest.size() == 1) {
            if (has_key(-1, rest[0])) {
                auto& cand = edge_map[{-1, rest[0]}];
                cand.p = combineP(cand.p, mech->probability);
            } else {
                add_edge(-1, rest[0], mech->probability,
                         carries_observables ? mech->observables : 0);
                clean = false;
            }
        }
        if (!clean)
            ++g.undecomposed;
    }

    g.inc.assign(g.nNodes, {});
    for (const auto& [key, cand] : edge_map) {
        GraphEdge e;
        // key is (min, max), so a boundary (-1) always lands in first.
        e.u = key.second;
        e.v = key.first;
        e.probability = cand.p;
        double best_p = -1.0;
        for (const auto& [obs, p] : cand.byObs) {
            if (p > best_p) {
                best_p = p;
                e.observables = obs;
            }
        }
        e.weight = weightFromProbability(cand.p);
        const auto id = static_cast<std::int32_t>(g.edgeList.size());
        g.edgeList.push_back(e);
        g.inc[static_cast<std::size_t>(e.u)].push_back(id);
        if (e.v >= 0)
            g.inc[static_cast<std::size_t>(e.v)].push_back(id);
    }
    return g;
}

void
DecodingGraph::projectSparse(std::span<const std::uint32_t> fired,
                             std::vector<std::uint32_t>& out) const
{
    for (auto d : fired) {
        HETARCH_DEBUG_ASSERT(d < det2node.size(), "detector id ", d,
                             " out of range");
        const auto node = det2node[d];
        if (node >= 0)
            out.push_back(static_cast<std::uint32_t>(node));
    }
}

UnionFindDecoder::UnionFindDecoder(const DecodingGraph& graph)
    : g(graph)
{
    const std::size_t slots = g.numNodes() + 1; // + virtual boundary
    nodeEpoch.assign(slots, 0);
    adjNodeEpoch.assign(slots, 0);
    visitedEpoch.assign(slots, 0);
    parent.assign(slots, 0);
    odd.assign(slots, 0);
    touchesBoundary.assign(slots, 0);
    materialized.assign(slots, 0);
    defect.assign(slots, 0);
    frontier.resize(slots);
    members.resize(slots);
    adj.resize(slots);
    parentEdge.assign(slots, {SIZE_MAX, SIZE_MAX});
    edgeEpoch.assign(g.edges().size(), 0);
    grown.assign(g.edges().size(), 0);
}

void
UnionFindDecoder::touchNode(std::size_t v)
{
    if (nodeEpoch[v] == epoch)
        return;
    nodeEpoch[v] = epoch;
    const std::size_t boundary = g.numNodes();
    parent[v] = static_cast<std::int32_t>(v);
    odd[v] = 0;
    touchesBoundary[v] = v == boundary;
    materialized[v] = v == boundary;
    defect[v] = 0;
    frontier[v].clear();
    members[v].clear();
    members[v].push_back(static_cast<std::int32_t>(v));
    touchedNodes.push_back(v);
}

std::vector<std::pair<std::size_t, std::size_t>>&
UnionFindDecoder::adjOf(std::size_t v)
{
    if (adjNodeEpoch[v] != epoch) {
        adjNodeEpoch[v] = epoch;
        adj[v].clear();
    }
    return adj[v];
}

std::size_t
UnionFindDecoder::findRoot(std::size_t x)
{
    while (parent[x] != static_cast<std::int32_t>(x)) {
        parent[x] = parent[static_cast<std::size_t>(parent[x])];
        x = static_cast<std::size_t>(parent[x]);
    }
    return x;
}

std::size_t
UnionFindDecoder::unite(std::size_t a, std::size_t b)
{
    std::size_t ra = findRoot(a), rb = findRoot(b);
    if (ra == rb)
        return ra;
    // Union by member count; ties keep the first argument's root, as
    // in the dense reference.
    if (members[ra].size() < members[rb].size())
        std::swap(ra, rb);
    parent[rb] = static_cast<std::int32_t>(ra);
    odd[ra] ^= odd[rb];
    touchesBoundary[ra] |= touchesBoundary[rb];
    members[ra].insert(members[ra].end(), members[rb].begin(),
                       members[rb].end());
    members[rb].clear();
    frontier[ra].insert(frontier[ra].end(), frontier[rb].begin(),
                        frontier[rb].end());
    frontier[rb].clear();
    return ra;
}

std::uint32_t
UnionFindDecoder::decodeSparse(std::span<const std::uint32_t> fired,
                               std::vector<std::uint32_t>* applied_edges)
{
    const std::size_t n = g.numNodes();
    const std::size_t boundary = n; // virtual boundary node id
    if (fired.empty())
        return 0;

    ++epoch;
    worklist.clear();
    touchedNodes.clear();
    grownEdges.clear();

    touchNode(boundary);
    for (auto v : fired) {
        HETARCH_DEBUG_ASSERT(v < n, "node id ", v, " out of range");
        touchNode(v);
        odd[v] = 1;
        defect[v] = 1;
        frontier[v] = g.incidence()[v];
        materialized[v] = 1;
        worklist.push_back(v);
    }

    // --- growth ------------------------------------------------------
    // Round-robin: grow every active cluster's frontier by one unit
    // until all clusters are neutral (even parity or boundary-touching).
    // Same schedule as the dense reference; only the state storage
    // differs (lazily re-initialized arena instead of fresh vectors).
    bool progress = true;
    while (progress) {
        progress = false;
        rootsBuf.clear();
        for (auto v : worklist) {
            const auto r = findRoot(v);
            if (odd[r] && !touchesBoundary[r])
                rootsBuf.push_back(r);
        }
        std::sort(rootsBuf.begin(), rootsBuf.end());
        rootsBuf.erase(std::unique(rootsBuf.begin(), rootsBuf.end()),
                       rootsBuf.end());
        if (rootsBuf.empty())
            break;

        for (auto r : rootsBuf) {
            if (findRoot(r) != r || !odd[r] || touchesBoundary[r])
                continue; // merged or neutralized earlier this sweep
            keepBuf.clear();
            edgesNowBuf = frontier[r];
            frontier[r].clear();
            for (auto eid : edgesNowBuf) {
                const auto e_idx = static_cast<std::size_t>(eid);
                const auto& e = g.edges()[e_idx];
                if (edgeEpoch[e_idx] != epoch) {
                    edgeEpoch[e_idx] = epoch;
                    grown[e_idx] = 0;
                }
                if (grown[e_idx] >= e.weight) {
                    continue; // already fully grown and merged
                }
                grown[e_idx] += 2;
                progress = true;
                if (grown[e_idx] >= e.weight) {
                    grownEdges.push_back(e_idx);
                    const std::size_t a = static_cast<std::size_t>(e.u);
                    const std::size_t b =
                        e.v < 0 ? boundary : static_cast<std::size_t>(e.v);
                    // Materialize far endpoints' incident edges.
                    for (std::size_t endpoint : {a, b}) {
                        touchNode(endpoint);
                        if (endpoint != boundary &&
                            !materialized[endpoint]) {
                            materialized[endpoint] = 1;
                            const auto er = findRoot(endpoint);
                            frontier[er].insert(
                                frontier[er].end(),
                                g.incidence()[endpoint].begin(),
                                g.incidence()[endpoint].end());
                        }
                    }
                    const auto nr = unite(unite(a, b), r);
                    worklist.push_back(nr);
                } else {
                    keepBuf.push_back(eid);
                }
            }
            const auto r2 = findRoot(r);
            frontier[r2].insert(frontier[r2].end(), keepBuf.begin(),
                                keepBuf.end());
        }
    }

    // --- peeling ------------------------------------------------------
    // For each cluster, build a spanning forest of fully grown edges
    // and peel from the leaves, emitting correction edges.  Roots are
    // visited in ascending id order and adjacency lists are built in
    // ascending edge-id order so the spanning trees — and with them the
    // emitted corrections — match the dense reference bit for bit.
    std::uint32_t correction = 0;

    std::sort(grownEdges.begin(), grownEdges.end());
    for (auto eid : grownEdges) {
        const auto& e = g.edges()[eid];
        const std::size_t a = static_cast<std::size_t>(e.u);
        const std::size_t b =
            e.v < 0 ? boundary : static_cast<std::size_t>(e.v);
        adjOf(a).push_back({b, eid});
        adjOf(b).push_back({a, eid});
    }

    std::sort(touchedNodes.begin(), touchedNodes.end());
    for (auto r : touchedNodes) {
        if (findRoot(r) != r || members[r].empty())
            continue;
        // Pick a tree root: boundary if in this cluster, else r itself.
        std::size_t tree_root = r;
        if (touchesBoundary[r]) {
            for (auto m : members[r]) {
                if (static_cast<std::size_t>(m) == boundary) {
                    tree_root = boundary;
                    break;
                }
            }
        }
        if (visitedEpoch[tree_root] == epoch)
            continue;
        // BFS spanning tree.
        orderBuf.clear();
        visitedEpoch[tree_root] = epoch;
        orderBuf.push_back(tree_root);
        for (std::size_t head = 0; head < orderBuf.size(); ++head) {
            const auto u = orderBuf[head];
            for (const auto& [w, eid] : adjOf(u)) {
                if (visitedEpoch[w] != epoch) {
                    visitedEpoch[w] = epoch;
                    parentEdge[w] = {u, eid};
                    orderBuf.push_back(w);
                }
            }
        }
        // Peel leaves-first (reverse BFS order).
        for (std::size_t k = orderBuf.size(); k-- > 1;) {
            const auto v = orderBuf[k];
            if (defect[v]) {
                const auto [p, eid] = parentEdge[v];
                correction ^= g.edges()[eid].observables;
                if (applied_edges)
                    applied_edges->push_back(
                        static_cast<std::uint32_t>(eid));
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
