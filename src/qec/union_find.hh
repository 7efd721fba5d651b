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
 *
 * The decoder has one entry point, decodeSparse(span of fired node
 * ids), which runs on an epoch-versioned scratch arena owned by the
 * decoder: per-node/per-edge state is lazily re-initialized the first
 * time a decode touches it, so a weight-w syndrome costs O(cluster
 * size), not O(graph size), and no per-shot allocation survives
 * warm-up.  Tests pin it bit for bit against a dense reference
 * (tests/support/reference_decoders.hh) that replicates the growth
 * schedule, frontier merge order and peeling order with fresh
 * per-call state and shares no code with the arena.
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
    /** Edge ids incident to a node. */
    const std::vector<std::vector<std::int32_t>>& incidence() const
    {
        return inc;
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
    std::size_t nNodes = 0;
    std::vector<GraphEdge> edgeList;
    std::vector<std::vector<std::int32_t>> inc;
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
     * Decode a syndrome given as the ascending list of fired node ids
     * and return the predicted logical-observable mask of the
     * correction.  A pure function of @p fired (the epoch-stamped
     * arena isolates decodes from each other); runs on the reusable
     * arena (no per-shot allocation once warm).
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

  private:
    void touchNode(std::size_t v);
    std::vector<std::pair<std::size_t, std::size_t>>&
    adjOf(std::size_t v);
    std::size_t findRoot(std::size_t x);
    std::size_t unite(std::size_t a, std::size_t b);

    const DecodingGraph& g;

    // --- epoch-versioned scratch arena -------------------------------
    // A slot is valid iff its epoch stamp equals `epoch`; bumping
    // `epoch` invalidates everything in O(1).  Sized n+1 (last slot =
    // virtual boundary node) or #edges at construction.
    std::uint64_t epoch = 0;
    std::vector<std::uint64_t> nodeEpoch;
    std::vector<std::uint64_t> edgeEpoch;
    std::vector<std::uint64_t> adjNodeEpoch;
    std::vector<std::uint64_t> visitedEpoch;
    std::vector<std::int32_t> parent;
    std::vector<std::uint8_t> odd;
    std::vector<std::uint8_t> touchesBoundary;
    std::vector<std::uint8_t> materialized;
    std::vector<std::uint8_t> defect;
    std::vector<std::vector<std::int32_t>> frontier;
    std::vector<std::vector<std::int32_t>> members;
    std::vector<std::int32_t> grown;
    std::vector<std::vector<std::pair<std::size_t, std::size_t>>> adj;
    std::vector<std::pair<std::size_t, std::size_t>> parentEdge;
    // Reused per-decode buffers (cleared, never shrunk).
    std::vector<std::size_t> worklist;
    std::vector<std::size_t> touchedNodes;
    std::vector<std::size_t> grownEdges;
    std::vector<std::size_t> rootsBuf;
    std::vector<std::size_t> orderBuf;
    std::vector<std::int32_t> keepBuf;
    std::vector<std::int32_t> edgesNowBuf;
};

} // namespace qec
} // namespace hetarch
