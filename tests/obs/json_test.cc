/**
 * @file
 * Tests for the stable v1 snapshot JSON: the writer's output is pinned
 * byte for byte against a golden document.
 */

#include <gtest/gtest.h>

#include <string>

#include "obs/json.hh"
#include "obs/obs.hh"

namespace hetarch {
namespace {

obs::Snapshot
sampleSnapshot()
{
    obs::Snapshot snap;
    snap.counters = {{"a.count", 3}, {"b.count", 0}};
    obs::Snapshot::HistogramEntry h;
    h.name = "a.hist_ns";
    h.count = 3;
    h.sum = 9;
    h.buckets = {{1, 1}, {2, 1}, {4, 1}};
    snap.histograms.push_back(h);
    snap.spans.push_back({"phase.one", 10, 250, 0});
    return snap;
}

TEST(ObsJson, GoldenSchema)
{
    const char* expected = R"({
  "schema": "hetarch-obs-v1",
  "counters": {
    "a.count": 3,
    "b.count": 0
  },
  "histograms": {
    "a.hist_ns": {"count": 3, "sum": 9, "buckets": [[1, 1], [2, 1], [4, 1]]}
  },
  "spans": [
    {"name": "phase.one", "start_ns": 10, "dur_ns": 250, "thread": 0}
  ]
}
)";
    EXPECT_EQ(obs::toJson(sampleSnapshot()), expected);
}

} // namespace
} // namespace hetarch
