#!/usr/bin/env python3
"""Compare bench-regression artifacts against a committed baseline.

Two kinds of artifact per benchmark name:

  METRICS_<name>.json  obs snapshot (schema hetarch-obs-v1).  Counters
                       are deterministic by contract and are compared
                       EXACTLY: a missing, extra, or different counter
                       fails the run.  Histograms and spans carry
                       timing/scheduling data and are never gated.
  BENCH_<name>.json    google-benchmark output.  Timings are advisory:
                       deviations beyond the tolerance only print
                       warnings (CI machines are too noisy to gate on).

Usage:
  compare_bench.py --baseline DIR --current DIR [name...]
  compare_bench.py --self-test

With no names, every METRICS_*.json in the baseline directory is
compared.  Exit status: 0 clean, 1 counter mismatch or missing
artifact, 2 usage error.

When instrumentation changes legitimately (new counters, new events on
an existing path), regenerate the baseline:
  scripts/run_bench.sh --quick --no-micro --out-dir bench-results <names>
"""

import argparse
import json
import os
import sys
import tempfile

# Advisory only: warn when a microbenchmark's real_time moved by more
# than this factor relative to baseline.
TIMING_TOLERANCE = 0.5

SCHEMA = "hetarch-obs-v1"

# Companion-counter rules: when the key counter appears in a snapshot,
# every listed companion must appear too.  Exact comparison alone can't
# catch instrumentation that silently vanishes from BOTH sides when a
# baseline is regenerated; these rules pin counters a pipeline is
# contractually required to emit (the trivial-shot decode bypass must
# be live on every decoding path).
REQUIRED_COMPANIONS = {
    "qec.decode.shots": ("qec.decode.trivial_shots",),
    # The schedule analyzer's memoization telemetry must stay live on
    # every pipeline that runs an analysis.
    "lint.sched.analyses": ("lint.sched.cache_hits",
                            "lint.sched.cache_misses"),
    # Likewise for the dataflow analyzer: hazard and memoization
    # telemetry must stay live wherever a flow analysis runs.
    "lint.flow.analyses": ("lint.flow.hazards",
                           "lint.flow.cache_hits",
                           "lint.flow.cache_misses"),
    # The streaming engine's window accounting must stay live wherever
    # streaming decode runs: dropping any of these silently would hide
    # a commit-rule or storage-bound regression.
    "qec.stream.shots": ("qec.stream.blocks",
                         "qec.stream.windows",
                         "qec.stream.committed_rounds",
                         "qec.stream.lane_decodes",
                         "qec.stream.carry_defects"),
    # Every job the service admits must be accounted for in exactly
    # one terminal tally; dropping any of these would hide lost jobs.
    "service.jobs.submitted": ("service.jobs.completed",
                               "service.jobs.failed",
                               "service.jobs.cancelled",
                               "service.jobs.rejected"),
    # The word-parallel sampler's noise-tape accounting, and the
    # generator words its noise resolution drew (RNG contract v2's
    # work count), must stay live wherever the packed sampler runs.
    "stab.sampler.batches": ("stab.sampler.noise_words",
                             "stab.sampler.rng_draws"),
}


def check_required_counters(name, doc, which):
    """Enforce REQUIRED_COMPANIONS on one snapshot."""
    failures = []
    counters = doc.get("counters", {})
    for key, companions in sorted(REQUIRED_COMPANIONS.items()):
        if key not in counters:
            continue
        for companion in companions:
            if companion not in counters:
                failures.append(
                    f"{name}: {which} snapshot has '{key}' but lacks "
                    f"its required companion counter '{companion}'")
    return failures


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load {path}: {exc}", file=sys.stderr)
        return None


def compare_counters(name, baseline, current):
    """Exact comparison of the deterministic counter section."""
    failures = []
    for doc, which in ((baseline, "baseline"), (current, "current")):
        if doc.get("schema") != SCHEMA:
            failures.append(
                f"{name}: {which} snapshot has schema "
                f"{doc.get('schema')!r}, expected {SCHEMA!r}")
    if failures:
        return failures

    base = baseline.get("counters", {})
    cur = current.get("counters", {})
    for counter in sorted(set(base) | set(cur)):
        if counter not in cur:
            failures.append(f"{name}: counter '{counter}' missing from "
                            f"current run (baseline={base[counter]})")
        elif counter not in base:
            failures.append(f"{name}: unexpected new counter "
                            f"'{counter}'={cur[counter]} (regenerate "
                            "the baseline if intentional)")
        elif base[counter] != cur[counter]:
            failures.append(f"{name}: counter '{counter}' deviates: "
                            f"baseline={base[counter]} "
                            f"current={cur[counter]}")
    return failures


def compare_timings(name, baseline, current):
    """Advisory comparison of google-benchmark real_time entries."""
    warnings = []

    def times(doc):
        out = {}
        for entry in doc.get("benchmarks", []):
            if entry.get("run_type", "iteration") == "iteration":
                out[entry.get("name")] = entry.get("real_time")
        return out

    base, cur = times(baseline), times(current)
    for bench in sorted(set(base) & set(cur)):
        b, c = base[bench], cur[bench]
        if not b or not c or b <= 0:
            continue
        ratio = c / b
        if abs(ratio - 1.0) > TIMING_TOLERANCE:
            warnings.append(f"{name}: {bench} real_time moved "
                            f"{ratio:.2f}x (baseline={b:.0f}ns "
                            f"current={c:.0f}ns) [advisory]")
    return warnings


def run_compare(args):
    names = args.names
    if not names:
        names = sorted(
            fn[len("METRICS_"):-len(".json")]
            for fn in os.listdir(args.baseline)
            if fn.startswith("METRICS_") and fn.endswith(".json"))
    if not names:
        print(f"error: no METRICS_*.json under {args.baseline}",
              file=sys.stderr)
        return 2

    failures, warnings = [], []
    for name in names:
        metrics = f"METRICS_{name}.json"
        base_doc = load_json(os.path.join(args.baseline, metrics))
        cur_doc = load_json(os.path.join(args.current, metrics))
        if base_doc is None or cur_doc is None:
            failures.append(f"{name}: metrics artifact missing")
            continue
        failures += compare_counters(name, base_doc, cur_doc)
        failures += check_required_counters(name, base_doc, "baseline")
        failures += check_required_counters(name, cur_doc, "current")

        bench = f"BENCH_{name}.json"
        base_bench = os.path.join(args.baseline, bench)
        cur_bench = os.path.join(args.current, bench)
        if os.path.exists(base_bench) and os.path.exists(cur_bench):
            base_doc = load_json(base_bench)
            cur_doc = load_json(cur_bench)
            if base_doc is not None and cur_doc is not None:
                warnings += compare_timings(name, base_doc, cur_doc)

    for warning in warnings:
        print(f"WARN  {warning}")
    for failure in failures:
        print(f"FAIL  {failure}")
    if failures:
        print(f"bench comparison FAILED "
              f"({len(failures)} counter deviation(s))")
        return 1
    print(f"bench comparison clean ({len(names)} benchmark(s), "
          f"{len(warnings)} advisory warning(s))")
    return 0


def self_test():
    """Exercise the comparator against synthetic artifacts."""
    metrics = {
        "schema": SCHEMA,
        "counters": {"exec.tasks": 128, "qec.decode.shots": 4096,
                     "qec.decode.trivial_shots": 512,
                     "lint.sched.analyses": 12,
                     "lint.sched.cache_hits": 6,
                     "lint.sched.cache_misses": 6,
                     "lint.flow.analyses": 9,
                     "lint.flow.hazards": 2,
                     "lint.flow.cache_hits": 4,
                     "lint.flow.cache_misses": 5,
                     "qec.stream.shots": 4096,
                     "qec.stream.blocks": 448,
                     "qec.stream.windows": 64,
                     "qec.stream.committed_rounds": 448,
                     "qec.stream.lane_decodes": 3800,
                     "qec.stream.carry_defects": 900,
                     "stab.sampler.batches": 64,
                     "stab.sampler.noise_words": 35840,
                     "stab.sampler.rng_draws": 22400},
        "histograms": {},
        "spans": [],
    }
    bench = {
        "benchmarks": [
            {"name": "BM_Decode", "run_type": "iteration",
             "real_time": 1000.0},
        ],
    }

    def write(root, which, metrics_doc, bench_doc):
        d = os.path.join(root, which)
        os.makedirs(d, exist_ok=True)
        with open(os.path.join(d, "METRICS_x.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(metrics_doc, fh)
        with open(os.path.join(d, "BENCH_x.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(bench_doc, fh)
        return d

    def result(base_doc, cur_doc, cur_bench):
        with tempfile.TemporaryDirectory() as root:
            args = argparse.Namespace(
                baseline=write(root, "base", base_doc, bench),
                current=write(root, "cur", cur_doc, cur_bench),
                names=["x"])
            return run_compare(args)

    checks = []

    # Identical artifacts compare clean.
    checks.append(("identical", result(metrics, metrics, bench) == 0))

    # A perturbed counter value must fail.
    perturbed = json.loads(json.dumps(metrics))
    perturbed["counters"]["qec.decode.shots"] += 1
    checks.append(("perturbed counter",
                   result(metrics, perturbed, bench) == 1))

    # A dropped counter must fail.
    dropped = json.loads(json.dumps(metrics))
    del dropped["counters"]["exec.tasks"]
    checks.append(("dropped counter",
                   result(metrics, dropped, bench) == 1))

    # An extra counter must fail (baseline is stale).
    extra = json.loads(json.dumps(metrics))
    extra["counters"]["new.counter"] = 7
    checks.append(("extra counter",
                   result(metrics, extra, bench) == 1))

    # A big timing swing is advisory: still clean.
    slow = json.loads(json.dumps(bench))
    slow["benchmarks"][0]["real_time"] = 9000.0
    checks.append(("slow timing is advisory",
                   result(metrics, metrics, slow) == 0))

    # A required companion dropped from BOTH sides must still fail:
    # exact comparison alone would call the snapshots identical.
    no_companion = json.loads(json.dumps(metrics))
    del no_companion["counters"]["qec.decode.trivial_shots"]
    checks.append(("companion counter dropped from both sides",
                   result(no_companion, no_companion, bench) == 1))

    # The companion rule is dormant when the key counter is absent.
    no_decode = json.loads(json.dumps(metrics))
    del no_decode["counters"]["qec.decode.shots"]
    del no_decode["counters"]["qec.decode.trivial_shots"]
    checks.append(("companion rule dormant without key counter",
                   result(no_decode, no_decode, bench) == 0))

    # Same contract for the schedule analyzer's cache telemetry.
    no_sched_cache = json.loads(json.dumps(metrics))
    del no_sched_cache["counters"]["lint.sched.cache_hits"]
    checks.append(("sched cache companion dropped from both sides",
                   result(no_sched_cache, no_sched_cache, bench) == 1))

    # And for the dataflow analyzer's hazard/cache telemetry.
    no_flow_hazards = json.loads(json.dumps(metrics))
    del no_flow_hazards["counters"]["lint.flow.hazards"]
    checks.append(("flow hazard companion dropped from both sides",
                   result(no_flow_hazards, no_flow_hazards, bench) == 1))
    no_flow = json.loads(json.dumps(metrics))
    for key in list(no_flow["counters"]):
        if key.startswith("lint.flow."):
            del no_flow["counters"][key]
    checks.append(("flow rule dormant without key counter",
                   result(no_flow, no_flow, bench) == 0))

    # And for the streaming engine's window accounting.
    no_windows = json.loads(json.dumps(metrics))
    del no_windows["counters"]["qec.stream.windows"]
    checks.append(("stream window companion dropped from both sides",
                   result(no_windows, no_windows, bench) == 1))
    no_stream = json.loads(json.dumps(metrics))
    for key in list(no_stream["counters"]):
        if key.startswith("qec.stream."):
            del no_stream["counters"][key]
    checks.append(("stream rule dormant without key counter",
                   result(no_stream, no_stream, bench) == 0))

    # And for the sampler's noise-tape accounting and its draw count.
    no_tape = json.loads(json.dumps(metrics))
    del no_tape["counters"]["stab.sampler.noise_words"]
    checks.append(("noise-word companion dropped from both sides",
                   result(no_tape, no_tape, bench) == 1))
    no_draws = json.loads(json.dumps(metrics))
    del no_draws["counters"]["stab.sampler.rng_draws"]
    checks.append(("rng-draw companion dropped from both sides",
                   result(no_draws, no_draws, bench) == 1))

    # A wrong schema tag must fail.
    bad_schema = json.loads(json.dumps(metrics))
    bad_schema["schema"] = "hetarch-obs-v0"
    checks.append(("schema mismatch",
                   result(metrics, bad_schema, bench) == 1))

    ok = True
    for label, passed in checks:
        print(f"self-test {'PASS' if passed else 'FAIL'}: {label}")
        ok = ok and passed
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline", help="committed baseline directory")
    parser.add_argument("--current", help="freshly produced directory")
    parser.add_argument("--self-test", action="store_true",
                        help="run the comparator's own checks and exit")
    parser.add_argument("names", nargs="*",
                        help="benchmark names (default: every "
                             "METRICS_*.json in the baseline)")
    args = parser.parse_args()

    if args.self_test:
        sys.exit(self_test())
    if not args.baseline or not args.current:
        parser.error("--baseline and --current are required "
                     "(or use --self-test)")
    sys.exit(run_compare(args))


if __name__ == "__main__":
    main()
