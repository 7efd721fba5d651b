#include "qec/union_find.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

#include "core/flat_hash_index.hh"
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

    // Edge candidates in first-seen order, found through their packed
    // (min, max) key, the boundary -1 packed as 0 so that key order is
    // pair order.  Each candidate's observable masks form a list in
    // `votes` that sums p per mask, so the dominant mask wins.
    struct Candidate
    {
        std::uint64_t key = 0;
        double p = 0.0;
        std::int32_t votes = -1;
    };
    struct Vote
    {
        std::uint32_t obs = 0;
        double p = 0.0;
        std::int32_t next = -1;
    };
    std::vector<Candidate> cands;
    std::vector<Vote> votes;
    FlatHashIndex index;

    auto key_of = [](std::int32_t u, std::int32_t v) {
        if (u > v)
            std::swap(u, v);
        return std::uint64_t{static_cast<std::uint32_t>(u + 1)} << 32 |
               static_cast<std::uint32_t>(v + 1);
    };
    auto find = [&](std::uint64_t key) {
        return index.find(FlatHashIndex::mix(key), [&](std::uint32_t c) {
            return cands[c].key == key;
        });
    };
    auto add_edge = [&](std::int32_t u, std::int32_t v, double p,
                        std::uint32_t obs) {
        const auto key = key_of(u, v);
        auto c = find(key);
        if (c == FlatHashIndex::kAbsent) {
            c = static_cast<std::uint32_t>(cands.size());
            index.insert(FlatHashIndex::mix(key), c);
            cands.push_back({key});
        }
        cands[c].p = combineP(cands[c].p, p);
        std::int32_t* link = &cands[c].votes;
        while (*link >= 0 && votes[static_cast<std::size_t>(*link)].obs != obs)
            link = &votes[static_cast<std::size_t>(*link)].next;
        auto vote = *link;
        if (vote < 0) {
            vote = *link = static_cast<std::int32_t>(votes.size());
            votes.push_back({obs});
        }
        votes[static_cast<std::size_t>(vote)].p += p;
    };

    std::vector<std::uint32_t> deferred;
    std::vector<std::int32_t> nodes;
    for (std::uint32_t i = 0; i < dem.mechanisms.size(); ++i) {
        const auto mech = dem.mechanisms[i];
        nodes.clear();
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
            deferred.push_back(i);
        }
    }

    // Decompose >2-detector mechanisms onto existing elementary edges:
    // reuse an elementary edge's own observable mask, since the
    // decomposition parity works out because the elementary mechanisms
    // exist.
    auto merge = [&](std::int32_t u, std::int32_t v, double p) {
        const auto c = find(key_of(u, v));
        if (c != FlatHashIndex::kAbsent)
            cands[c].p = combineP(cands[c].p, p);
        return c != FlatHashIndex::kAbsent;
    };
    std::vector<std::int32_t> rest;
    for (const auto m : deferred) {
        const auto mech = dem.mechanisms[m];
        rest.clear();
        for (auto d : mech.detectors)
            if (g.det2node[d] >= 0)
                rest.push_back(g.det2node[d]);
        bool clean = true;
        while (rest.size() >= 2) {
            bool found = false;
            for (std::size_t i = 0; i < rest.size() && !found; ++i) {
                for (std::size_t j = i + 1; j < rest.size() && !found;
                     ++j) {
                    if (merge(rest[i], rest[j], mech.probability)) {
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
                add_edge(rest[0], rest[1], mech.probability, 0);
                rest.erase(rest.begin(), rest.begin() + 2);
                clean = false;
            }
        }
        if (rest.size() == 1 && !merge(-1, rest[0], mech.probability)) {
            add_edge(-1, rest[0], mech.probability,
                     carries_observables ? mech.observables : 0);
            clean = false;
        }
        if (!clean)
            ++g.undecomposed;
    }

    std::sort(cands.begin(), cands.end(),
              [](const Candidate& a, const Candidate& b) {
                  return a.key < b.key;
              });
    g.edgeList.reserve(cands.size());
    for (const auto& cand : cands) {
        GraphEdge e;
        // The key packs (min, max), so a boundary (-1) lands in v.
        e.u = static_cast<std::int32_t>(cand.key & 0xffffffffu) - 1;
        e.v = static_cast<std::int32_t>(cand.key >> 32) - 1;
        e.probability = cand.p;
        double best_p = -1.0;
        for (auto i = cand.votes; i >= 0;) {
            const Vote& vote = votes[static_cast<std::size_t>(i)];
            if (vote.p > best_p ||
                (vote.p == best_p && vote.obs < e.observables)) {
                best_p = vote.p;
                e.observables = vote.obs;
            }
            i = vote.next;
        }
        e.weight = weightFromProbability(cand.p);
        g.edgeList.push_back(e);
    }

    // CSR incidence, filled in edge-id order so every node's list is
    // ascending: count into incBegin[v + 2], prefix-sum, then advance
    // incBegin[v + 1] as v's fill cursor.
    g.incBegin.assign(g.nNodes + 2, 0);
    for (const auto& e : g.edgeList)
        for (const std::int32_t v : {e.u, e.v})
            if (v >= 0)
                ++g.incBegin[static_cast<std::size_t>(v) + 2];
    std::partial_sum(g.incBegin.begin(), g.incBegin.end(),
                     g.incBegin.begin());
    g.incEdges.resize(g.incBegin.back());
    for (std::uint32_t id = 0; id < g.edgeList.size(); ++id)
        for (const std::int32_t v : {g.edgeList[id].u, g.edgeList[id].v})
            if (v >= 0)
                g.incEdges[g.incBegin[static_cast<std::size_t>(v) + 1]++] = id;
    g.incBegin.pop_back();
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
    : g(graph), nodes(graph.numNodes() + 1), // + virtual boundary
      edgeState(graph.edges().size())
{
    nodeSet.words.assign(nodes.size() / 64 + 1, 0);
    grownSet.words.assign(edgeState.size() / 64 + 1, 0);
    std::int32_t quiet = INT32_MAX;
    for (std::size_t e = 0; e < edgeState.size(); ++e) {
        const auto& edge = g.edges()[e];
        edgeState[e].weight = edge.weight;
        // Grown from both ends a sweep, or from one at the boundary.
        const std::int32_t per_sweep = edge.v < 0 ? 2 : 4;
        quiet = std::min(quiet,
                         (edge.weight + per_sweep - 1) / per_sweep - 1);
    }
    quietSweeps = edgeState.empty() ? 0 : quiet;
}

void
UnionFindDecoder::IdSet::insert(std::size_t id)
{
    words[id / 64] |= std::uint64_t{1} << (id % 64);
    lo = std::min(lo, id / 64);
    hi = std::max(hi, id / 64);
}

void
UnionFindDecoder::IdSet::drain(std::vector<std::uint32_t>& out)
{
    out.clear();
    for (std::size_t w = lo; w <= hi; ++w) {
        for (std::uint64_t word = words[w]; word; word &= word - 1)
            out.push_back(static_cast<std::uint32_t>(
                w * 64 + static_cast<std::size_t>(std::countr_zero(word))));
        words[w] = 0;
    }
    lo = SIZE_MAX;
    hi = 0;
}

[[gnu::always_inline]] inline void
UnionFindDecoder::reach(std::size_t v)
{
    auto& node = nodes[v];
    if (node.epoch == epoch)
        return;
    node = {epoch, static_cast<std::uint32_t>(v), 1};
    node.head = node.tail = static_cast<std::int32_t>(segments.size());
    segments.push_back({g.incBegin[v], g.incBegin[v + 1], -1, false});
}

void
UnionFindDecoder::splice(NodeState& root, std::int32_t head,
                         std::int32_t tail)
{
    if (head < 0)
        return;
    if (root.head >= 0)
        segments[static_cast<std::size_t>(root.tail)].next = head;
    else
        root.head = head;
    root.tail = tail;
}

[[gnu::always_inline]] inline std::size_t
UnionFindDecoder::findRoot(std::size_t x)
{
    while (nodes[x].parent != x) {
        nodes[x].parent = nodes[nodes[x].parent].parent;
        x = nodes[x].parent;
    }
    return x;
}

[[gnu::always_inline]] inline std::size_t
UnionFindDecoder::unite(std::size_t a, std::size_t b)
{
    std::size_t ra = findRoot(a), rb = findRoot(b);
    if (ra == rb)
        return ra;
    // Union by size; ties keep the first argument's root, as in the
    // dense reference.
    if (nodes[ra].size < nodes[rb].size)
        std::swap(ra, rb);
    auto& keep = nodes[ra];
    auto& gone = nodes[rb];
    gone.parent = static_cast<std::uint32_t>(ra);
    keep.size += gone.size;
    keep.odd ^= gone.odd;
    keep.boundary |= gone.boundary;
    // The absorbed frontier follows the survivor's.  Only a root's
    // list is ever read, so rb's stale head/tail need no reset.
    splice(keep, gone.head, gone.tail);
    return ra;
}

std::uint32_t
UnionFindDecoder::decodeSparse(std::span<const std::uint32_t> fired,
                               std::vector<std::uint32_t>* applied_edges)
{
    const std::size_t boundary = g.numNodes(); // virtual boundary node id
    if (fired.empty())
        return 0;

    ++epoch;
    active.clear();
    segments.clear();
    keptLen = 0;
    nodes[boundary] = {epoch, static_cast<std::uint32_t>(boundary), 1};
    nodes[boundary].boundary = 1;
    // Sweeps 1..quietSweeps in one pass: no edge can complete in them,
    // so each fired node stays a lone cluster and each sweep grows
    // every edge of its frontier, its CSR range, by 2.  When no fired
    // node has an edge the schedule stops after one sweep, so then
    // nothing is applied or counted.
    const std::uint64_t ep = epoch;
    const std::int32_t quiet_growth = 2 * quietSweeps;
    std::uint64_t degrees = 0;
    for (std::size_t i = 0; i < fired.size(); ++i) {
        const auto v = fired[i];
        HETARCH_DEBUG_ASSERT(v < boundary, "node id ", v, " out of range");
        HETARCH_DEBUG_ASSERT(i == 0 || fired[i - 1] < v,
                             "fired node ids not strictly ascending");
        reach(v);
        nodes[v].odd = 1;
        nodes[v].defect = 1;
        active.push_back(v);
        const auto inc = g.incident(v);
        degrees += inc.size();
        for (const auto eid : inc) {
            auto& es = edgeState[eid];
            es.grown =
                (es.grown & -static_cast<std::int32_t>(es.epoch == ep)) +
                quiet_growth;
            es.epoch = ep;
        }
    }
    if (degrees > 0) {
        nSweeps += static_cast<std::uint64_t>(quietSweeps);
        nEdgeVisits += static_cast<std::uint64_t>(quietSweeps) * degrees;
    }
    grow();
    return peel(applied_edges);
}

void
UnionFindDecoder::grow()
{
    // Round-robin from sweep quietSweeps + 1: grow every active
    // cluster's frontier by one unit until all clusters are neutral
    // (even parity or boundary-touching).  Same schedule as the dense
    // reference: roots ascending, frontier entries in list order.
    // Every active cluster contains a cluster that was active at the
    // previous sweep (a fresh node is even), so the roots of last
    // sweep's list find all of them.
    const std::size_t boundary = g.numNodes();
    const std::uint64_t ep = epoch;
    for (bool progress = true; progress;) {
        for (const auto v : active) {
            const auto r = findRoot(v);
            if (nodes[r].odd && !nodes[r].boundary)
                nodeSet.insert(r);
        }
        nodeSet.drain(active);
        if (active.empty())
            break;
        ++nSweeps;
        progress = false;

        for (const auto r : active) {
            auto& root = nodes[r];
            if (root.parent != r || !root.odd || root.boundary)
                continue; // merged or neutralized earlier this sweep
            // Detach the frontier: merges during the walk only touch
            // lists that are still attached to a root.
            std::int32_t s = root.head;
            root.head = root.tail = -1;
            const auto kept_begin = static_cast<std::uint32_t>(keptLen);
            while (s >= 0) {
                const Segment seg = segments[static_cast<std::size_t>(s)];
                s = seg.next;
                const std::size_t len = seg.end - seg.begin;
                nEdgeVisits += len;
                // Room for every entry, so the pool stays put while a
                // walk reads and appends to it.
                if (kept.size() < keptLen + len)
                    kept.resize(2 * (keptLen + len));
                const std::uint32_t* ids =
                    (seg.kept ? kept.data() : g.incEdges.data()) + seg.begin;
                std::uint32_t* out = kept.data() + keptLen;
                for (std::size_t i = 0; i < len; ++i) {
                    const std::uint32_t eid = ids[i];
                    auto& es = edgeState[eid];
                    // About half the visits are an edge's first this
                    // decode, so reset by mask rather than by branch.
                    const std::int32_t grown =
                        es.grown & -static_cast<std::int32_t>(es.epoch == ep);
                    es.epoch = ep;
                    if (grown >= es.weight)
                        continue; // already fully grown and merged
                    es.grown = grown + 2;
                    progress = true;
                    if (es.grown < es.weight) {
                        *out++ = eid;
                        continue;
                    }
                    grownSet.insert(eid);
                    const auto& e = g.edges()[eid];
                    const std::size_t a = static_cast<std::size_t>(e.u);
                    const std::size_t b =
                        e.v < 0 ? boundary : static_cast<std::size_t>(e.v);
                    reach(a);
                    reach(b);
                    unite(unite(a, b), r);
                }
                keptLen = static_cast<std::size_t>(out - kept.data());
            }
            // Edges still growing go after whatever the walk appended.
            if (keptLen > kept_begin) {
                const auto k = static_cast<std::int32_t>(segments.size());
                segments.push_back(
                    {kept_begin, static_cast<std::uint32_t>(keptLen), -1,
                     true});
                splice(nodes[findRoot(r)], k, k);
            }
        }
    }
}

std::uint32_t
UnionFindDecoder::peel(std::vector<std::uint32_t>* applied_edges)
{
    // For each cluster, build a spanning forest of fully grown edges
    // and peel from the leaves, emitting correction edges.  Trees start
    // from the roots in ascending id order and adjacency lists hold
    // ascending edge ids, so the spanning trees — and with them the
    // emitted corrections — match the dense reference bit for bit.
    const std::size_t boundary = g.numNodes();
    grownSet.drain(grownEdges);
    adjacency.resize(2 * grownEdges.size());
    std::size_t n_adj = 0;
    const auto link = [&](std::size_t from, std::size_t to,
                          std::uint32_t eid) {
        adjacency[n_adj] = {static_cast<std::uint32_t>(to), eid,
                            nodes[from].adj};
        nodes[from].adj = static_cast<std::int32_t>(n_adj++);
    };
    for (auto it = grownEdges.rbegin(); it != grownEdges.rend(); ++it) {
        // Prepending in descending order leaves each list ascending.
        const auto& e = g.edges()[*it];
        const std::size_t a = static_cast<std::size_t>(e.u);
        const std::size_t b =
            e.v < 0 ? boundary : static_cast<std::size_t>(e.v);
        link(a, b, *it);
        link(b, a, *it);
        // Tree roots: exactly the clusters holding a grown edge (a
        // singleton has nothing to peel).
        nodeSet.insert(findRoot(a));
    }
    nodeSet.drain(active);

    // A tree spans at most every grown edge plus its root; the slot
    // past the last one takes the unconditional write of a revisit.
    order.resize(grownEdges.size() + 2);
    std::uint32_t correction = 0;
    for (const auto r : active) {
        // The tree root: the boundary if in this cluster, else r.
        const auto tree_root =
            nodes[r].boundary ? static_cast<std::uint32_t>(boundary) : r;
        nodes[tree_root].visited = 1;
        order[0] = {tree_root, 0, tree_root};
        std::size_t len = 1;
        for (std::size_t head = 0; head < len; ++head) {
            const auto u = order[head].node;
            for (auto a = nodes[u].adj; a >= 0;) {
                const auto& entry = adjacency[static_cast<std::size_t>(a)];
                a = entry.next;
                auto& w = nodes[entry.other];
                order[len] = {entry.other, entry.edge, u};
                len += !w.visited;
                w.visited = 1;
            }
        }
        // Peel leaves-first (reverse BFS order).
        for (std::size_t k = len; k-- > 1;) {
            const auto& step = order[k];
            const std::uint8_t d = nodes[step.node].defect;
            correction ^= g.edges()[step.edge].observables & (0u - d);
            if (applied_edges && d)
                applied_edges->push_back(step.edge);
            nodes[step.node].defect = 0;
            nodes[step.parent].defect ^= d;
        }
        nodes[boundary].defect = 0; // boundary absorbs anything
    }
    return correction;
}

} // namespace qec
} // namespace hetarch
