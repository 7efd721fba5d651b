/**
 * @file
 * Weighted union-find decoder (Delfosse–Nickerson) over a decoding
 * graph derived from a detector error model.
 *
 * The graph is built per detector class (tag): for the surface code,
 * Z-stabilizer detectors form the graph that catches X errors and
 * carries the logical-Z observable.  Mechanisms with one detector in
 * the class become boundary edges; with two, ordinary edges; with more
 * than two, they are decomposed onto existing elementary edges (the
 * same convention Stim/PyMatching use for Y-type correlations).
 * Incidence is CSR, each node's edge ids ascending.
 *
 * The decoder has one entry point, decodeSparse(span of fired node
 * ids), which runs on flat epoch-stamped records owned by the decoder
 * (one per node, one per edge, lazily reset when a decode first
 * touches them), so a weight-w syndrome costs O(cluster size), not
 * O(graph size).  A cluster's frontier is a linked list of segments,
 * each a CSR range or a run of a per-decode pool of still-growing
 * edges, so a merge is an O(1) splice.  The first sweeps, in which
 * no edge can complete (an edge grows by at most 4 per sweep, 2 at
 * the boundary), leave every cluster a lone defect; decodeSparse
 * applies them in one pass over the fired nodes' incidence.  Tests
 * pin it bit for bit, correction edges and growth counters included,
 * against a dense reference (tests/support/union_find_reference.hh)
 * that replicates the growth schedule, frontier merge order and
 * peeling order with fresh per-call state and shares no code with
 * the decoder.
 */

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "stab/dem.hh"

namespace hetarch {
namespace qec {

/** One edge of the decoding graph. */
struct GraphEdge
{
    std::int32_t u = -1;     ///< node id
    std::int32_t v = -1;     ///< node id, or -1 for the boundary
    double probability = 0.0;
    std::uint32_t observables = 0; ///< logical mask flipped by this edge
    std::int32_t weight = 1;       ///< integer growth weight
};

/** Matching graph over one detector class. */
class DecodingGraph
{
  public:
    /**
     * Build from a DEM keeping only detectors whose tag equals
     * @p wanted_tag.  @p tags is indexed by detector id.
     *
     * Mechanisms on the same node pair merge into one edge, in DEM
     * order, as q(1 - p) + p(1 - q).  Its observable mask is voted by
     * the mechanisms that map onto the pair directly (one or two kept
     * detectors, or a pair no existing edge decomposes): each mask's p
     * sums, the largest sum wins, and on a tie the smallest mask wins.
     * A mechanism decomposed onto existing edges adds its p to each
     * but does not vote.  Edges are ordered by (min, max) node id, the
     * boundary counting as -1.
     *
     * @p carries_observables: whether logical flips are attributed to
     * this graph.  In a memory-Z experiment only X-type errors flip the
     * logical, and they are caught by the Z-stabilizer graph — so that
     * graph carries the observables and the X-stabilizer graph must
     * not (Y-error mechanisms span both graphs and would otherwise
     * double-attribute their logical flip).
     */
    static DecodingGraph fromDem(const stab::DetectorErrorModel& dem,
                                 const std::vector<std::uint32_t>& tags,
                                 std::uint32_t wanted_tag,
                                 bool carries_observables = true);

    /** Number of (kept) detector nodes. */
    std::size_t numNodes() const { return nNodes; }
    const std::vector<GraphEdge>& edges() const { return edgeList; }
    /** Edge ids incident to node @p v, ascending. */
    std::span<const std::uint32_t> incident(std::size_t v) const
    {
        return {incEdges.data() + incBegin[v],
                incBegin[v + 1] - incBegin[v]};
    }
    /** Map from global detector id to node id (-1 when filtered out). */
    const std::vector<std::int32_t>& detectorToNode() const
    {
        return det2node;
    }
    /** Mechanisms that could not be decomposed onto elementary edges. */
    std::size_t undecomposedCount() const { return undecomposed; }

    /**
     * Project an ascending list of fired global detector ids onto this
     * graph, appending the kept node ids to @p out (ascending, since
     * node ids are assigned in detector order).
     */
    void projectSparse(std::span<const std::uint32_t> fired,
                       std::vector<std::uint32_t>& out) const;

  private:
    friend class UnionFindDecoder; // frontier segments index the CSR

    std::size_t nNodes = 0;
    std::vector<GraphEdge> edgeList;
    std::vector<std::uint32_t> incBegin; ///< numNodes() + 1 offsets
    std::vector<std::uint32_t> incEdges;
    std::vector<std::int32_t> det2node;
    std::size_t undecomposed = 0;
};

/**
 * Union-find decoder.  Construct once per graph, then decode many
 * syndromes.  decodeSparse() uses the decoder's scratch arena and must
 * not be called concurrently on one instance (use one decoder per
 * worker, as the chunked experiment path does).
 */
class UnionFindDecoder
{
  public:
    explicit UnionFindDecoder(const DecodingGraph& graph);

    /**
     * Decode a syndrome given as the strictly ascending list of fired
     * node ids (a repeated id would be grown twice; debug builds
     * assert the order) and return the predicted logical-observable
     * mask of the correction.  A pure function of @p fired (the
     * epoch-stamped arena isolates decodes from each other); runs on
     * the reusable arena (no per-shot allocation once warm).
     *
     * When @p applied_edges is non-null, the ids of the correction
     * edges the peeling pass applied are appended to it (in peel
     * order).  The sliding-window decoder uses this to split a
     * window's correction into committed and deferred parts; passing
     * nullptr skips the recording entirely.
     */
    std::uint32_t decodeSparse(std::span<const std::uint32_t> fired,
                               std::vector<std::uint32_t>* applied_edges =
                                   nullptr);

    /**
     * Growth work since construction: the schedule's sweeps, and the
     * frontier entries they examine (already-grown entries a sweep
     * drops included), the quiet sweeps applied in one pass counted
     * as if walked.  Both are functions of the decoded fired lists
     * alone.
     */
    std::uint64_t sweeps() const { return nSweeps; }
    std::uint64_t edgeVisits() const { return nEdgeVisits; }

  private:
    /** Per-node record; valid iff `epoch` equals the decoder's. */
    struct NodeState
    {
        std::uint64_t epoch = 0;
        std::uint32_t parent = 0, size = 0; ///< size: roots only
        std::int32_t head = -1, tail = -1;  ///< frontier segments (roots)
        std::int32_t adj = -1;              ///< first peel-adjacency entry
        std::uint8_t odd = 0, boundary = 0; ///< cluster flags (roots)
        std::uint8_t defect = 0, visited = 0;
    };
    /** Per-edge growth; valid iff `epoch` equals the decoder's. */
    struct EdgeState
    {
        std::uint64_t epoch = 0;
        std::int32_t grown = 0, weight = 0;
    };
    /** A run of frontier edge ids in the graph's CSR or the kept pool. */
    struct Segment
    {
        std::uint32_t begin = 0, end = 0;
        std::int32_t next = -1;
        bool kept = false;
    };
    /** Peel adjacency: a grown edge seen from one endpoint. */
    struct AdjEntry
    {
        std::uint32_t other = 0, edge = 0;
        std::int32_t next = -1;
    };
    /** A BFS-tree node with the edge and node it was reached from. */
    struct TreeStep
    {
        std::uint32_t node = 0, edge = 0, parent = 0;
    };
    /** Bitset of ids read back ascending; all-zero between drains. */
    struct IdSet
    {
        std::vector<std::uint64_t> words;
        std::size_t lo = SIZE_MAX, hi = 0; ///< words that may be set
        void insert(std::size_t id);
        void drain(std::vector<std::uint32_t>& out);
    };

    /** First reach of @p v this decode: reset it, frontier = CSR. */
    void reach(std::size_t v);
    /** Append segments head..tail (none if head < 0) to @p root's. */
    void splice(NodeState& root, std::int32_t head, std::int32_t tail);
    std::size_t findRoot(std::size_t x);
    std::size_t unite(std::size_t a, std::size_t b);
    void grow();
    std::uint32_t peel(std::vector<std::uint32_t>* applied_edges);

    const DecodingGraph& g;
    /**
     * Sweeps no syndrome can complete an edge in: the minimum over
     * edges of ceil(weight / 4) - 1, ceil(weight / 2) - 1 for a
     * boundary edge.
     */
    std::int32_t quietSweeps = 0;

    // Bumping `epoch` invalidates every record in O(1).  Sized
    // numNodes() + 1 (last slot = virtual boundary node) or #edges.
    std::uint64_t epoch = 0;
    std::vector<NodeState> nodes;
    std::vector<EdgeState> edgeState;
    IdSet nodeSet;  ///< active roots per sweep, then tree roots
    IdSet grownSet; ///< fully grown edges

    // Per-decode pools (cleared, never shrunk).
    std::vector<std::uint32_t> active; ///< roots to grow, then to peel
    std::vector<Segment> segments;
    std::vector<std::uint32_t> kept; ///< first keptLen entries in use
    std::size_t keptLen = 0;
    std::vector<std::uint32_t> grownEdges;
    std::vector<AdjEntry> adjacency;
    std::vector<TreeStep> order;

    std::uint64_t nSweeps = 0;
    std::uint64_t nEdgeVisits = 0;
};

} // namespace qec
} // namespace hetarch
