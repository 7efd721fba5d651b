#include "obs/json.hh"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <ostream>
#include <sstream>

#include "core/logging.hh"
#include "core/strict_json.hh"

namespace hetarch {
namespace obs {

namespace {

/** --metrics-out destination captured by configureMetricsFromArgs. */
std::string&
requestedMetricsPath()
{
    static std::string path;
    return path;
}

void
writeRequestedSnapshot()
{
    const auto& path = requestedMetricsPath();
    if (!path.empty())
        writeSnapshotFile(Registry::instance().snapshot(), path);
}

} // namespace

void
writeSnapshotJson(const Snapshot& snap, std::ostream& os)
{
    os << "{\n  \"schema\": \"hetarch-obs-v1\",\n  \"counters\": {";
    bool first = true;
    for (const auto& [name, value] : snap.counters) {
        os << (first ? "\n    " : ",\n    ");
        core::json::writeString(os, name);
        os << ": " << value;
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";

    first = true;
    for (const auto& h : snap.histograms) {
        os << (first ? "\n    " : ",\n    ");
        core::json::writeString(os, h.name);
        os << ": {\"count\": " << h.count << ", \"sum\": " << h.sum
           << ", \"buckets\": [";
        bool first_bucket = true;
        for (const auto& [lo, count] : h.buckets) {
            os << (first_bucket ? "" : ", ") << '[' << lo << ", "
               << count << ']';
            first_bucket = false;
        }
        os << "]}";
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n  \"spans\": [";

    first = true;
    for (const auto& span : snap.spans) {
        os << (first ? "\n    " : ",\n    ") << "{\"name\": ";
        core::json::writeString(os, span.name);
        os << ", \"start_ns\": " << span.startNs
           << ", \"dur_ns\": " << span.durNs
           << ", \"thread\": " << span.thread << '}';
        first = false;
    }
    os << (first ? "" : "\n  ") << "]\n}\n";
}

std::string
toJson(const Snapshot& snap)
{
    std::ostringstream os;
    writeSnapshotJson(snap, os);
    return os.str();
}

bool
writeSnapshotFile(const Snapshot& snap, const std::string& path)
{
    std::ofstream out(path);
    if (!out) {
        warn("obs: cannot write metrics snapshot to '", path, "'");
        return false;
    }
    writeSnapshotJson(snap, out);
    return out.good();
}

TextTable
snapshotTable(const Snapshot& snap)
{
    TextTable t(
        {"metric", "kind", "count", "sum", "mean", "p50", "p90", "p99"});
    for (const auto& [name, value] : snap.counters)
        t.addRow({name, "counter", std::to_string(value), "", "", "", "",
                  ""});
    for (const auto& h : snap.histograms) {
        const double mean =
            h.count ? static_cast<double>(h.sum) /
                          static_cast<double>(h.count)
                    : 0.0;
        // Quantiles are estimated from the power-of-two buckets at
        // display time; they are never serialized (schema unchanged).
        t.addRow({h.name, "histogram", std::to_string(h.count),
                  std::to_string(h.sum),
                  h.count ? formatFixed(mean, 1) : "",
                  h.count ? formatFixed(histogramQuantile(h, 0.5), 1) : "",
                  h.count ? formatFixed(histogramQuantile(h, 0.9), 1) : "",
                  h.count ? formatFixed(histogramQuantile(h, 0.99), 1)
                          : ""});
    }
    return t;
}

const std::string&
metricsOutPath()
{
    return requestedMetricsPath();
}

bool
flushConfiguredMetrics()
{
    auto& path = requestedMetricsPath();
    if (path.empty())
        return false;
    writeSnapshotFile(Registry::instance().snapshot(), path);
    path.clear(); // disarm the atexit writer
    return true;
}

void
configureMetricsFromArgs(int& argc, char** argv)
{
    auto& path = requestedMetricsPath();
    const bool already_registered = !path.empty();
    // Startup-only configuration read; nothing writes the environment.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    if (const char* env = std::getenv("HETARCH_METRICS_OUT"))
        path = env;

    constexpr const char* kFlag = "--metrics-out=";
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0)
            path = argv[i] + std::strlen(kFlag);
        else
            argv[out++] = argv[i];
    }
    argc = out;

    if (path.empty())
        return;
    setTimingEnabled(true);
    setTracingEnabled(true);
    if (!already_registered)
        std::atexit(writeRequestedSnapshot);
}

} // namespace obs
} // namespace hetarch
