/**
 * @file
 * Shared, immutable decoding setup for Monte-Carlo experiments, plus a
 * process-wide cache of setups keyed on circuit content.
 *
 * Building the detector error model and the decoding graphs is the
 * serial prefix of every memory experiment; chunk-parallel decoding
 * wants exactly one of each, shared read-only by all chunks.  Design-
 * space sweeps additionally re-evaluate the same circuit shape many
 * times (e.g. every code pair of Table 4 re-prepares the same code's
 * logical state), so setups are cached across calls.
 *
 * The cache is transparent: construction is deterministic, so a hit
 * returns a setup bit-identical to what a fresh build would produce.
 */

#pragma once

#include <cstdint>
#include <memory>

#include "lint/faults.hh"
#include "qec/dem_decoder.hh"
#include "qec/union_find.hh"
#include "stab/circuit.hh"
#include "stab/dem.hh"
#include "stab/frame_program.hh"

namespace hetarch {
namespace qec {

/** Decoder selection for runMemoryExperiment. */
enum class DecoderKind
{
    /** Weighted union-find on the tagged matching graphs. */
    UnionFind,
    /** Greedy DEM decoder (handles hyperedge mechanisms). */
    GreedyDem,
};

/**
 * Everything shot-independent about decoding one circuit: the DEM
 * and, per decoder kind, either the two tagged matching graphs (with
 * the observable-carrier vote already taken) or the greedy decoder's
 * lookup structures.  Immutable after build(); safe to share across
 * threads.
 */
struct DecoderSetup
{
    stab::DetectorErrorModel dem;

    /**
     * The circuit lowered once into a frame program (see
     * frame_program.hh); every sampling chunk of a memory experiment
     * shares it instead of re-scanning the op list per batch.
     */
    std::shared_ptr<const stab::FrameProgram> program;

    // Union-find path.
    DecodingGraph graphZ;
    DecodingGraph graphX;
    /** Whether the Z-detector graph carries the logical observable. */
    bool zCarriesObservable = true;

    // Greedy-DEM path (references `dem`, hence the stable storage).
    std::unique_ptr<DemDecoder> greedy;

    DecoderSetup() = default;
    DecoderSetup(const DecoderSetup&) = delete;
    DecoderSetup& operator=(const DecoderSetup&) = delete;

    /**
     * Build the setup for @p circuit / @p kind (no caching).  For
     * UnionFind, fatal when both detector classes hold mechanisms that
     * flip an observable on their own: one decoded graph cannot
     * predict both classes' flips.
     */
    static std::shared_ptr<const DecoderSetup>
    build(const stab::Circuit& circuit, DecoderKind kind);
};

/**
 * Process-wide setup cache keyed on (circuit content, decoder kind),
 * built on BuildOnceCache (core/build_once_cache.hh): thread-safe,
 * bounded (evicts wholesale when over capacity, since sweeps touch
 * each shape in bursts), and a setup build that throws leaves no entry
 * behind, so the next request for that circuit builds afresh.
 */
class DecoderCache
{
  public:
    static DecoderCache& instance();

    /** Cached or freshly built setup for @p circuit / @p kind. */
    std::shared_ptr<const DecoderSetup> get(const stab::Circuit& circuit,
                                            DecoderKind kind);

    /**
     * Cached static fault analysis of @p circuit
     * (lint::analyzeCircuitFaults), keyed on circuit content and
     * @p options.  Build-once semantics match get().
     */
    std::shared_ptr<const lint::FaultAnalysis>
    faultAnalysis(const stab::Circuit& circuit,
                  const lint::FaultOptions& options = {});

    /** Drop all cached setups. */
    void clear();
    /** Number of cached setups (decoder and fault entries). */
    std::size_t size() const;
    /** Cache hits since construction (for tests and perf reports). */
    std::size_t hits() const;

  private:
    struct Impl;
    DecoderCache();
    ~DecoderCache();
    std::unique_ptr<Impl> impl;
};

} // namespace qec
} // namespace hetarch
