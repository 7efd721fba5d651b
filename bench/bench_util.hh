/**
 * @file
 * Shared scaffolding for the benchmark/reproduction binaries: each
 * binary prints its paper artifact (table or figure data series),
 * exports the observability snapshot, and then runs its
 * google-benchmark microbenchmarks.
 *
 * Environment / CLI knobs:
 *   HETARCH_QUICK=1        run the experiments at reduced shot counts
 *   HETARCH_THREADS=N      worker count of the exec engine (default:
 *                          all hardware threads); results are
 *                          bit-identical for any value
 *   --threads=N            same as HETARCH_THREADS, takes precedence
 *   HETARCH_METRICS_OUT=F  write the obs snapshot (JSON) to F
 *   --metrics-out=F        same, takes precedence
 *
 * The metrics snapshot is taken after the artifact but before the
 * microbenchmarks: google-benchmark picks iteration counts adaptively,
 * so counters recorded during it are machine-dependent and must not
 * reach the exported file (CI compares counter values exactly).
 */

#pragma once

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <iostream>

#include "dse/experiments.hh"
#include "exec/thread_pool.hh"
#include "obs/json.hh"
#include "obs/obs.hh"

namespace hetarch {
namespace bench {

/** Scale from the environment: quick mode for smoke runs. */
inline dse::RunScale
runScale()
{
    dse::RunScale scale;
    if (std::getenv("HETARCH_QUICK"))
        scale.shotScale = 0.05;
    return scale;
}

/**
 * Consume a leading --threads=N argument (if any) into
 * exec::setThreadCount, leaving the remaining argv for
 * google-benchmark.
 */
inline void
configureThreads(int& argc, char** argv)
{
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        constexpr const char* kFlag = "--threads=";
        if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0) {
            const long n = std::strtol(argv[i] + std::strlen(kFlag),
                                       nullptr, 10);
            if (n >= 1)
                ::hetarch::exec::setThreadCount(
                    static_cast<unsigned>(n));
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;
}

/** Consume the bench-harness flags (--threads, --metrics-out). */
inline void
configure(int& argc, char** argv)
{
    configureThreads(argc, argv);
    obs::configureMetricsFromArgs(argc, argv);
}

/**
 * Print the run configuration header: the worker count.  Custom bench
 * mains call this right after configure(); HETARCH_BENCH_MAIN does it
 * for the rest.
 */
inline void
printRunHeader()
{
    std::cout << "exec threads: " << exec::threadCount() << "\n";
}

/** Print one experiment table under a banner. */
inline void
printArtifact(const char* title, const TextTable& table)
{
    std::cout << "\n=== " << title << " ===\n";
    table.print(std::cout);
    std::cout.flush();
}

/**
 * Export the obs snapshot accumulated so far (when --metrics-out /
 * HETARCH_METRICS_OUT is set) and print its human-readable summary.
 * Must run before the microbenchmarks — see the file comment.
 */
inline void
exportMetrics()
{
    if (obs::metricsOutPath().empty())
        return;
    const auto snap = obs::Registry::instance().snapshot();
    std::cout << "\n=== metrics (" << obs::metricsOutPath()
              << ") ===\n";
    obs::snapshotTable(snap).print(std::cout);
    std::cout.flush();
    obs::flushConfiguredMetrics();
}

} // namespace bench
} // namespace hetarch

/**
 * Standard main: print the artifact (wrapped in a trace span), export
 * the metrics snapshot, then run microbenchmarks.
 */
#define HETARCH_BENCH_MAIN(TITLE, TABLE_EXPR)                            \
    int main(int argc, char** argv)                                     \
    {                                                                    \
        ::hetarch::bench::configure(argc, argv);                        \
        ::hetarch::bench::printRunHeader();                             \
        {                                                                \
            ::hetarch::obs::Span span("bench.artifact");                \
            ::hetarch::bench::printArtifact(TITLE, TABLE_EXPR);         \
        }                                                                \
        ::hetarch::bench::exportMetrics();                              \
        ::benchmark::Initialize(&argc, argv);                           \
        ::benchmark::RunSpecifiedBenchmarks();                          \
        return 0;                                                        \
    }
