/**
 * @file
 * Shared pieces of the shot-pipeline benchmark: the workload record
 * (filled from the command line, which run.py builds from spec.json),
 * the output-check tally, the metric set printed as the final JSON
 * line, and small timing/statistics helpers.
 */

#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "qec/noise_model.hh"
#include "qec/stream_experiment.hh"
#include "stab/circuit.hh"
#include "stab/dem.hh"

namespace shotbench {

using namespace hetarch;

/** Which experiment entry point a workload drives. */
enum class Kind
{
    Memory, ///< qec::runMemoryExperiment (chunked batch path)
    Stream, ///< qec::runStreamingMemoryExperiment (windowed stream)
};

/** One workload, fully resolved from the command line. */
struct Workload
{
    std::string name;
    Kind kind = Kind::Memory;
    std::size_t distance = 0;
    std::size_t rounds = 0;
    qec::CircuitNoise noise;
    /** Window / commit of the streaming decoder (stream workloads). */
    qec::StreamConfig stream;
    /** Shots per experiment call. */
    std::size_t shots = 0;
    /** Multi-worker count of shots_per_s (min(nproc, 4) by default). */
    unsigned workers = 1;
    /** Reference logical failure rate per shot. */
    double refRate = 0.0;
    /** refRate is an upper bound (failures ~0), not a point value. */
    bool refIsUpperBound = false;
    std::uint64_t seed = 0;
    double seconds = 0.0;
};

/** Result of one timed experiment call through the library. */
struct CallResult
{
    std::size_t failures = 0;
    double seconds = 0.0;
    std::uint64_t fired = 0;      ///< fired detectors over all shots
    std::uint64_t flips = 0;      ///< stab.sampler.frame_flips delta
    std::uint64_t noiseWords = 0; ///< stab.sampler.noise_words delta
    qec::StreamingResult stream;  ///< stream workloads only
};

/**
 * One call of the workload's public entry point (runMemoryExperiment,
 * or runStreamingMemoryExperiment with w.stream) on @p workers
 * workers.  The counts are deltas of the library's own obs registry.
 */
CallResult runCall(const Workload& w, const stab::Circuit& circuit,
                   std::uint64_t seed, unsigned workers, std::size_t shots);

/** Counts output checks against checks attempted. */
class Checks
{
  public:
    /** Record one check; prints the failing ones to stderr. */
    void expect(bool ok, const std::string& what);

    std::uint64_t attempted() const { return nAttempted; }
    std::uint64_t failed() const { return nFailed; }

  private:
    std::uint64_t nAttempted = 0;
    std::uint64_t nFailed = 0;
};

/** Named metrics with units, printed as the benchmark's result line. */
class Metrics
{
  public:
    void add(const std::string& name, double value, const std::string& unit)
    {
        entries.push_back({name, value, unit});
    }

    bool allFinite() const
    {
        return std::all_of(
            entries.begin(), entries.end(),
            [](const Entry& e) { return std::isfinite(e.value); });
    }

    /** The final JSON line: correct / attempted / failed / metrics. */
    std::string resultLine(const Checks& checks) const;

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries;
};

/** Wall-clock stopwatch on std::chrono::steady_clock. */
class Stopwatch
{
  public:
    double seconds() const
    {
        return std::chrono::duration<double>(Clock::now() - start).count();
    }

  private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point start = Clock::now();
};

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Quantile @p q in [0, 1] of @p v by linear interpolation. */
double quantile(std::vector<double> v, double q);

/** Peak resident set of this process in MiB (getrusage). */
double peakRssMiB();

/** Seed of experiment call @p i of a run seeded with @p seed. */
std::uint64_t callSeed(std::uint64_t seed, std::size_t i);

/** The workload's circuit: rotated surface memory-Z. */
stab::Circuit buildCircuit(const Workload& w);

/**
 * Expected fired detectors per shot under independent mechanisms:
 * sum over detectors of (1 - prod_{m flips d} (1 - 2 p_m)) / 2.
 */
double predictedFiredPerShot(const stab::DetectorErrorModel& dem);

/**
 * Output checks shared by both modes: the logical failure rate lies in
 * a wide Wilson interval around the workload's reference (or below
 * its upper bound), and mean fired detectors per shot is within the
 * a fixed relative tolerance of the DEM prediction.
 */
void checkStatistics(const Workload& w, const stab::DetectorErrorModel& dem,
                     std::uint64_t shots, std::uint64_t failures,
                     std::uint64_t fired, Checks& checks);

/** Run the traced mode (per-layer metrics, span export). */
void runTraced(const Workload& w, const stab::Circuit& circuit,
               const std::string& trace_out, Checks& checks,
               Metrics& metrics);

} // namespace shotbench
