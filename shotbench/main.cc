/**
 * @file
 * Shot-pipeline benchmark binary.
 *
 *   shotbench --workload NAME --kind memory|stream --distance D
 *             --rounds R --p1 P --p2 P --t1-ms T [--window W --commit C]
 *             --shots N --workers K --ref-rate X --ref-upper 0|1
 *             --seed S --seconds T --trace 0|1
 *             [--trace-out FILE]
 *
 * run.py builds this command line from spec.json.  With --trace 0 the
 * binary measures the end-to-end metrics through the library's stable
 * entry points only (DecoderCache, runMemoryExperiment,
 * runStreamingMemoryExperiment); with --trace 1 it runs the traced
 * per-layer decomposition (traced.cc).  Either way it runs the output
 * checks and prints one JSON result line last on stdout; the exit code
 * is 0 only when every check passed.
 */

#include <sys/resource.h>

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "core/rng.hh"
#include "core/stats.hh"
#include "exec/thread_pool.hh"
#include "obs/obs.hh"
#include "qec/memory_experiment.hh"
#include "qec/surface_circuit.hh"

#include "bench.hh"

namespace shotbench {

void
Checks::expect(bool ok, const std::string& what)
{
    ++nAttempted;
    if (!ok) {
        ++nFailed;
        std::cerr << "check failed: " << what << "\n";
    }
}

std::string
Metrics::resultLine(const Checks& checks) const
{
    std::ostringstream out;
    out.precision(12);
    out << "{\"correct\": " << (checks.failed() == 0 ? "true" : "false")
        << ", \"attempted\": " << checks.attempted()
        << ", \"failed\": " << checks.failed() << ", \"metrics\": {";
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const auto& e = entries[i];
        out << (i ? ", " : "") << "\"" << e.name
            << "\": {\"value\": " << e.value << ", \"unit\": \"" << e.unit
            << "\"}";
    }
    out << "}}";
    return out.str();
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
peakRssMiB()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // ru_maxrss: KiB
}

std::uint64_t
callSeed(std::uint64_t seed, std::size_t i)
{
    return Rng::deriveStream(seed, i);
}

stab::Circuit
buildCircuit(const Workload& w)
{
    return qec::surfaceMemoryZ(w.distance, w.rounds, w.noise);
}

double
predictedFiredPerShot(const stab::DetectorErrorModel& dem)
{
    std::vector<double> survive(dem.numDetectors, 1.0);
    for (const auto& mech : dem.mechanisms)
        for (auto d : mech.detectors)
            survive[d] *= 1.0 - 2.0 * mech.probability;
    double fired = 0.0;
    for (double s : survive)
        fired += (1.0 - s) / 2.0;
    return fired;
}

/**
 * Relative tolerance of mean fired detectors per shot against the DEM
 * prediction.  Relative, not sigma-based: the independent-mechanism
 * DEM runs about 0.5% low at Fig. 6 noise, many sigma at large shot
 * counts, while a correct sampler matches it at sub-threshold noise.
 */
constexpr double kFiredTolerance = 0.03;

void
checkStatistics(const Workload& w, const stab::DetectorErrorModel& dem,
                std::uint64_t shots, std::uint64_t failures,
                std::uint64_t fired, Checks& checks)
{
    // Wilson 95% interval with its half-widths doubled (~3.9 sigma):
    // wide enough that a correct sampler or a changed RNG stream never
    // trips it across many runs, narrow enough to catch a broken
    // decoder.
    TrialCounter trials;
    trials.add(failures, shots);
    const double rate = trials.rate();
    const double low = rate - 2.0 * (rate - trials.wilsonLow());
    const double high = rate + 2.0 * (trials.wilsonHigh() - rate);
    std::ostringstream what;
    what << "logical failure rate " << rate << " (" << failures << "/"
         << shots << ") vs reference " << w.refRate;
    if (w.refIsUpperBound)
        checks.expect(low <= w.refRate, what.str() + " (upper bound)");
    else
        checks.expect(low <= w.refRate && w.refRate <= high, what.str());

    const double predicted = predictedFiredPerShot(dem);
    const double measured =
        static_cast<double>(fired) / static_cast<double>(shots);
    std::ostringstream fired_what;
    fired_what << "fired detectors per shot " << measured
               << " vs DEM prediction " << predicted;
    checks.expect(std::abs(measured - predicted) <=
                      kFiredTolerance * predicted,
                  fired_what.str());
}

CallResult
runCall(const Workload& w, const stab::Circuit& circuit, std::uint64_t seed,
        unsigned workers, std::size_t shots)
{
    exec::setThreadCount(workers);
    // Both entry points feed qec.syndrome_weight and the sampler counters.
    auto& weights = obs::histogram("qec.syndrome_weight");
    auto& flips = obs::counter("stab.sampler.frame_flips");
    auto& words = obs::counter("stab.sampler.noise_words");
    const std::uint64_t fired0 = weights.sum(), flips0 = flips.load(),
                        words0 = words.load();
    CallResult r;
    Rng rng(seed);
    const Stopwatch watch;
    if (w.kind == Kind::Stream) {
        r.stream = qec::runStreamingMemoryExperiment(
            circuit, shots, w.rounds, qec::DecoderKind::UnionFind, rng,
            w.stream);
        r.failures = r.stream.memory.failures;
    } else {
        r.failures = qec::runMemoryExperiment(circuit, shots, w.rounds,
                                              qec::DecoderKind::UnionFind,
                                              rng)
                         .failures;
    }
    r.seconds = watch.seconds();
    r.fired = weights.sum() - fired0;
    r.flips = flips.load() - flips0;
    r.noiseWords = words.load() - words0;
    return r;
}

namespace {

/** Cold setup repeats per run; setup_s is their median. */
constexpr int kSetupRepeats = 31;
/** Fewest (multi-worker, 1-worker) call pairs per run. */
constexpr std::size_t kMinPairs = 3;

void
runEndToEnd(const Workload& w, const stab::Circuit& circuit, Checks& checks,
            Metrics& metrics)
{
    const Stopwatch run;
    auto& cache = qec::DecoderCache::instance();
    std::vector<double> setup_s;
    std::shared_ptr<const qec::DecoderSetup> setup;
    for (int k = 0; k < kSetupRepeats; ++k) {
        // Free the previous setup outside the timer, so no repeat times
        // a destructor or holds two setups at once.
        setup.reset();
        cache.clear();
        const Stopwatch watch;
        setup = cache.get(circuit, qec::DecoderKind::UnionFind);
        setup_s.push_back(watch.seconds());
    }

    // Warm the pool and the allocator on a seed no measured call uses.
    (void)runCall(w, circuit, callSeed(w.seed, ~std::size_t{0}), w.workers,
                  std::max<std::size_t>(w.shots / 4, 64));

    std::vector<double> rate_multi, rate_one;
    std::uint64_t shots = 0, failures = 0, fired = 0;
    double last_pair = 0.0;
    for (std::size_t i = 0;
         i < kMinPairs || run.seconds() + last_pair <= w.seconds; ++i) {
        const Stopwatch pair;
        const std::uint64_t seed = callSeed(w.seed, i);
        // Alternate which worker count goes first, so slow drift in
        // the machine's speed biases neither median.
        CallResult multi, one;
        if (i % 2 == 0) {
            multi = runCall(w, circuit, seed, w.workers, w.shots);
            one = runCall(w, circuit, seed, 1, w.shots);
        } else {
            one = runCall(w, circuit, seed, 1, w.shots);
            multi = runCall(w, circuit, seed, w.workers, w.shots);
        }
        last_pair = pair.seconds();

        std::ostringstream what;
        what << "call " << i << ": failures at " << w.workers
             << " workers (" << multi.failures << ") == at 1 worker ("
             << one.failures << ")";
        checks.expect(multi.failures == one.failures &&
                          multi.fired == one.fired &&
                          multi.stream == one.stream,
                      what.str());
        rate_multi.push_back(static_cast<double>(w.shots) / multi.seconds);
        rate_one.push_back(static_cast<double>(w.shots) / one.seconds);
        shots += w.shots;
        failures += multi.failures;
        fired += multi.fired;
    }
    checkStatistics(w, setup->dem, shots, failures, fired, checks);

    std::cerr << "shotbench " << w.name << ": " << rate_multi.size()
              << " call pairs of " << w.shots << " shots, "
              << shots << " shots, " << failures << " failures, "
              << run.seconds() << " s\n";
    for (const auto* rates : {&rate_multi, &rate_one})
        std::cerr << "  shots/s at " << (rates == &rate_one ? 1 : w.workers)
                  << " workers: min " << quantile(*rates, 0) << ", q1 "
                  << quantile(*rates, 0.25) << ", median " << median(*rates)
                  << ", q3 " << quantile(*rates, 0.75) << ", max "
                  << quantile(*rates, 1) << "\n";
    metrics.add("shots_per_s", median(rate_multi), "1/s");
    metrics.add("shots_per_s_1w", median(rate_one), "1/s");
    metrics.add("setup_s", median(setup_s), "s");
    metrics.add("peak_rss_mb", peakRssMiB(), "MiB");
}

[[noreturn]] void
usage(const std::string& why)
{
    std::cerr << "shotbench: " << why << "\n"
              << "usage: shotbench --workload NAME --kind memory|stream "
                 "--distance D --rounds R --p1 P --p2 P --t1-ms T "
                 "[--window W --commit C] --shots N --workers K "
                 "--ref-rate X --ref-upper 0|1 --seed S "
                 "--seconds T --trace 0|1 [--trace-out FILE]\n";
    std::exit(2);
}

/** Parse "--key value" pairs; every key must be known. */
std::map<std::string, std::string>
parseArgs(int argc, char** argv)
{
    static const char* known[] = {
        "workload", "kind",    "distance", "rounds",    "p1",
        "p2",       "t1-ms",   "window",   "commit",    "shots",
        "workers",  "ref-rate", "ref-upper", "seed",      "seconds",
        "trace",    "trace-out"};
    std::map<std::string, std::string> args;
    for (int i = 1; i < argc; i += 2) {
        const std::string key = argv[i];
        if (key.rfind("--", 0) != 0 || i + 1 >= argc)
            usage("expected --key value pairs, got '" + key + "'");
        const std::string name = key.substr(2);
        if (std::find(std::begin(known), std::end(known), name) ==
            std::end(known))
            usage("unknown option '" + key + "'");
        args[name] = argv[i + 1];
    }
    return args;
}

std::string
required(const std::map<std::string, std::string>& args,
         const std::string& key)
{
    const auto it = args.find(key);
    if (it == args.end())
        usage("missing --" + key);
    return it->second;
}

double
number(const std::map<std::string, std::string>& args,
       const std::string& key, double fallback)
{
    const auto it = args.find(key);
    if (it == args.end())
        return fallback;
    try {
        std::size_t used = 0;
        const double v = std::stod(it->second, &used);
        if (used != it->second.size() || !std::isfinite(v) || v < 0)
            throw std::invalid_argument(key);
        return v;
    } catch (const std::exception&) {
        usage("--" + key + " needs a non-negative number, got '" +
              it->second + "'");
    }
}

double
requiredNumber(const std::map<std::string, std::string>& args,
               const std::string& key)
{
    (void)required(args, key);
    return number(args, key, 0.0);
}

Workload
parseWorkload(const std::map<std::string, std::string>& args)
{
    Workload w;
    w.name = required(args, "workload");
    const std::string kind = required(args, "kind");
    if (kind != "memory" && kind != "stream")
        usage("--kind must be memory or stream");
    w.kind = kind == "stream" ? Kind::Stream : Kind::Memory;
    w.distance = static_cast<std::size_t>(requiredNumber(args, "distance"));
    w.rounds = static_cast<std::size_t>(requiredNumber(args, "rounds"));
    w.noise.p1 = requiredNumber(args, "p1");
    w.noise.p2 = requiredNumber(args, "p2");
    const double t1 = requiredNumber(args, "t1-ms") * units::ms;
    w.noise.dataT1 = w.noise.dataT2 = t1;
    w.noise.ancT1 = w.noise.ancT2 = t1;
    w.stream.windowRounds = static_cast<std::size_t>(number(args, "window", 0));
    w.stream.commitRounds = static_cast<std::size_t>(number(args, "commit", 0));
    w.shots = static_cast<std::size_t>(requiredNumber(args, "shots"));
    w.workers = static_cast<unsigned>(requiredNumber(args, "workers"));
    w.refRate = requiredNumber(args, "ref-rate");
    w.refIsUpperBound = requiredNumber(args, "ref-upper") != 0.0;
    const std::string seed = required(args, "seed");
    if (seed.empty() ||
        seed.find_first_not_of("0123456789") != std::string::npos ||
        seed.size() > 19)
        usage("--seed needs a non-negative integer, got '" + seed + "'");
    w.seed = std::stoull(seed);
    w.seconds = requiredNumber(args, "seconds");
    if (w.distance < 3 || w.distance % 2 == 0 || w.rounds < 1)
        usage("--distance must be odd and >= 3, --rounds >= 1");
    if (w.shots < 64 || w.workers < 1 || w.seconds <= 0)
        usage("--shots must be >= 64, --workers >= 1, --seconds > 0");
    if (w.kind == Kind::Stream &&
        (w.stream.windowRounds == 0 || w.stream.windowRounds >= w.rounds))
        usage("stream workloads need 0 < --window < --rounds");
    return w;
}

} // namespace

} // namespace shotbench

int
main(int argc, char** argv)
{
    using namespace shotbench;
    const auto args = parseArgs(argc, argv);
    const Workload w = parseWorkload(args);
    const std::string trace = required(args, "trace");
    if (trace != "0" && trace != "1")
        usage("--trace must be 0 or 1");

    Checks checks;
    Metrics metrics;
    try {
        const auto circuit = buildCircuit(w);
        if (trace == "1")
            runTraced(w, circuit, required(args, "trace-out"), checks,
                      metrics);
        else
            runEndToEnd(w, circuit, checks, metrics);
    } catch (const std::exception& e) {
        std::cerr << "shotbench: " << e.what() << "\n";
        return 1;
    }
    checks.expect(metrics.allFinite(), "every metric is a finite number");
    std::cout << metrics.resultLine(checks) << std::endl;
    return checks.failed() == 0 ? 0 : 1;
}
