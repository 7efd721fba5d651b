#include "qec/decoder_cache.hh"

#include <atomic>

#include "core/build_once_cache.hh"
#include "core/logging.hh"
#include "obs/obs.hh"
#include "qec/surface_circuit.hh"
#include "stab/circuit_stats.hh"

namespace hetarch {
namespace qec {

namespace {

// Telemetry.  get() counts a miss exactly when it claims the build of
// a previously-absent key, so the hit/miss split depends only on the
// sequence of distinct circuits — not on which thread wins a race —
// and stays bit-identical across worker counts while no eviction
// occurs (working set within capacity).
obs::Counter& cCacheHits = obs::counter("qec.decoder_cache.hits");
obs::Counter& cCacheMisses = obs::counter("qec.decoder_cache.misses");
obs::Counter& cCacheEvictions = obs::counter("qec.decoder_cache.evictions");
obs::Counter& cFaultHits = obs::counter("qec.decoder_cache.fault_hits");
obs::Counter& cFaultMisses = obs::counter("qec.decoder_cache.fault_misses");

} // namespace

std::shared_ptr<const DecoderSetup>
DecoderSetup::build(const stab::Circuit& circuit, DecoderKind kind)
{
    auto setup = std::make_shared<DecoderSetup>();
    setup->dem = stab::buildDetectorErrorModel(circuit);
    setup->program = stab::FrameProgram::compile(circuit);

    if (kind == DecoderKind::GreedyDem) {
        // The decoder keeps a reference to setup->dem, which lives at
        // a stable address inside the shared_ptr from here on.
        setup->greedy = std::make_unique<DemDecoder>(setup->dem);
        return setup;
    }

    // Union-find path: one graph per tagged detector class.  Exactly
    // one graph carries the logical observable: the one whose detector
    // class co-occurs with observable-flipping mechanisms (Z-stabilizer
    // detectors for memory-Z, X for memory-X).  Detect it from the DEM
    // instead of assuming a basis.  The other graph gets empty
    // observable masks, so SlidingWindowDecoder decodes the carrying
    // graph alone; both are still built, for the shot benchmark's
    // setup check and for tests that decode each graph directly.
    const auto& tags = circuit.detectorTags();
    // Vote with mechanisms whose detectors sit *exclusively* in one
    // class: a pure Z error (X-detector-only) can never flip logical Z,
    // so for memory-Z the exclusive observable flippers all live in the
    // Z-detector class (and symmetrically for memory-X).
    double obs_votes[2] = {0.0, 0.0};
    for (const auto& mech : setup->dem.mechanisms) {
        if (!mech.observables || mech.detectors.empty())
            continue;
        const auto first_tag = tags[mech.detectors.front()];
        bool exclusive = true;
        for (auto d : mech.detectors)
            exclusive = exclusive && tags[d] == first_tag;
        if (exclusive)
            obs_votes[first_tag == kTagX ? 1 : 0] += mech.probability;
    }
    // Only the carrying graph is decoded, so flips that only the other
    // class sees would never be predicted and would count as logical
    // failures.  Refuse such a circuit instead of decoding it wrongly.
    if (obs_votes[0] > 0.0 && obs_votes[1] > 0.0)
        HETARCH_FATAL("union-find decoding: observable-flipping "
                      "mechanisms lie wholly in both detector classes "
                      "(Z-tagged p = ", obs_votes[0], ", X-tagged p = ",
                      obs_votes[1], "), but only one matching graph is "
                      "decoded; use the greedy DEM decoder");
    setup->zCarriesObservable = obs_votes[0] >= obs_votes[1];
    setup->graphZ = DecodingGraph::fromDem(setup->dem, tags, kTagZ,
                                           setup->zCarriesObservable);
    setup->graphX = DecodingGraph::fromDem(setup->dem, tags, kTagX,
                                           !setup->zCarriesObservable);
    return setup;
}

struct DecoderCache::Impl
{
    /** Setup and fault-analysis hits since construction, for hits(). */
    std::atomic<std::size_t> hitCount{0};
    /** (circuit hash, op count, detector count, decoder kind). */
    BuildOnceCache<DecoderSetup, 4> setups{
        [this](bool hit, std::size_t evicted) {
            hitCount += hit;
            (hit ? cCacheHits : cCacheMisses).add();
            if (evicted)
                cCacheEvictions.add(evicted);
        }};
    /** (circuit hash, op count, detector count, max weight). */
    BuildOnceCache<lint::FaultAnalysis, 4> faults{
        [this](bool hit, std::size_t) {
            hitCount += hit;
            (hit ? cFaultHits : cFaultMisses).add();
        }};

    static BuildOnceCache<DecoderSetup, 4>::Key
    setupKey(const stab::Circuit& circuit, DecoderKind kind)
    {
        return {stab::hashCircuit(circuit), circuit.ops().size(),
                circuit.numDetectors(), static_cast<std::uint64_t>(kind)};
    }
};

DecoderCache::DecoderCache() : impl(std::make_unique<Impl>()) {}
DecoderCache::~DecoderCache() = default;

DecoderCache&
DecoderCache::instance()
{
    static DecoderCache cache;
    return cache;
}

std::shared_ptr<const DecoderSetup>
DecoderCache::get(const stab::Circuit& circuit, DecoderKind kind)
{
    return impl->setups.get(Impl::setupKey(circuit, kind), [&] {
        return DecoderSetup::build(circuit, kind);
    });
}

std::shared_ptr<const lint::FaultAnalysis>
DecoderCache::faultAnalysis(const stab::Circuit& circuit,
                            const lint::FaultOptions& options)
{
    const BuildOnceCache<lint::FaultAnalysis, 4>::Key key{
        stab::hashCircuit(circuit), circuit.ops().size(),
        circuit.numDetectors(), options.maxWeight};
    return impl->faults.get(key, [&] {
        return std::make_shared<const lint::FaultAnalysis>(
            lint::analyzeCircuitFaults(circuit, options));
    });
}

void
DecoderCache::clear()
{
    impl->setups.clear();
    impl->faults.clear();
}

std::size_t
DecoderCache::size() const
{
    return impl->setups.size() + impl->faults.size();
}

std::size_t
DecoderCache::hits() const
{
    return impl->hitCount;
}

} // namespace qec
} // namespace hetarch
