/**
 * @file
 * Stable-schema JSON serialization of obs snapshots, plus the shared
 * --metrics-out plumbing used by the bench/CLI/example binaries.
 *
 * Schema (version hetarch-obs-v1; field order fixed, names sorted):
 *
 *   {
 *     "schema": "hetarch-obs-v1",
 *     "counters": { "<name>": <u64>, ... },
 *     "histograms": {
 *       "<name>": { "count": <u64>, "sum": <u64>,
 *                   "buckets": [[<lower_bound>, <count>], ...] },
 *       ...
 *     },
 *     "spans": [ { "name": "<s>", "start_ns": <u64>,
 *                  "dur_ns": <u64>, "thread": <u32> }, ... ]
 *   }
 *
 * Counters are the deterministic, CI-gated part of the schema;
 * histograms and spans are advisory (see obs.hh).  Names are written
 * with core::json::writeString; scripts/compare_bench.py reads the
 * artifacts back with Python's json module.
 */

#pragma once

#include <iosfwd>
#include <string>

#include "core/table.hh"
#include "obs/obs.hh"

namespace hetarch {
namespace obs {

/** Serialize @p snap in the stable v1 schema. */
std::string toJson(const Snapshot& snap);

/** toJson, streamed. */
void writeSnapshotJson(const Snapshot& snap, std::ostream& os);

/** Write the snapshot to @p path; warns and returns false on failure. */
bool writeSnapshotFile(const Snapshot& snap, const std::string& path);

/** Human-readable summary table (counters, then histogram stats). */
TextTable snapshotTable(const Snapshot& snap);

/**
 * Consume a --metrics-out=PATH argument (or the HETARCH_METRICS_OUT
 * environment variable) from argv: enables timing and tracing and
 * registers an atexit hook that writes the registry snapshot to PATH
 * when the process ends.  Leaves unrelated arguments in place.
 */
void configureMetricsFromArgs(int& argc, char** argv);

/** The --metrics-out path captured above; empty when not configured. */
const std::string& metricsOutPath();

/**
 * Write the configured snapshot immediately and disarm the atexit
 * writer.  Bench binaries call this between the deterministic paper
 * artifact and the google-benchmark microbenchmarks, whose adaptive
 * iteration counts would otherwise leak machine-dependent event counts
 * into the exported file.  Returns false when no path is configured.
 */
bool flushConfiguredMetrics();

} // namespace obs
} // namespace hetarch
