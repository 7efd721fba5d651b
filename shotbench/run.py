#!/usr/bin/env python3
"""Shot-pipeline benchmark of the HetArch reproduction.

Run from the repository root:

    python3 shotbench/run.py --workload mem_d13_fig6 --seed 1 --seconds 30 --trace 0
    python3 shotbench/run.py --self-test

The first call configures and builds the binary (shotbench/CMakeLists.txt)
from the repository sources into $CARGO_TARGET_DIR/shotbench (default
.bench_build/shotbench); later calls only run an incremental build.
Workload parameters come from shotbench/spec.json.  The binary prints
one JSON result line last on stdout; with --trace 1 it also writes a
Chrome trace-event file (loadable in Perfetto) next to the build.

--self-test runs every workload at a tiny shot count in both modes,
checks that every metric named in BENCHMARK.json is emitted with its
unit and that the output checks ran, checks that a wrong reference rate
makes the checks fail, and prints the per-stage table of every workload.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; the first one also builds.
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "shotbench")


def worker_count(spec):
    return max(1, min(len(os.sched_getaffinity(0)), spec["max_workers"]))


def build(bdir, jobs):
    """Configure once, then build incrementally; True on success."""
    steps = []
    # The Makefile appears only once a configure step has succeeded.
    if not os.path.exists(os.path.join(bdir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", "shotbench",
                  "-j", str(jobs)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("shotbench: build step failed:", " ".join(cmd))
            return False
    return True


def binary_args(spec, wl, seed, seconds, trace, shots=None, ref_rate=None):
    args = [
        "--workload", wl["name"], "--kind", wl["kind"],
        "--distance", str(wl["distance"]), "--rounds", str(wl["rounds"]),
        "--p1", repr(wl["p1"]), "--p2", repr(wl["p2"]),
        "--t1-ms", repr(wl["t1_ms"]),
        "--shots", str(shots or wl["shots_per_call"]),
        "--workers", str(worker_count(spec)),
        "--ref-rate", repr(wl["ref_rate"] if ref_rate is None else ref_rate),
        "--ref-upper", "1" if wl["ref_is_upper_bound"] else "0",
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if wl["kind"] == "stream":
        args += ["--window", str(wl["window"]), "--commit", str(wl["commit"])]
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        args += ["--trace-out", os.path.join(traces, wl["name"] + ".json")]
    return args


def run_binary(args):
    """Run the built binary; returns (exit code, stdout)."""
    exe = os.path.join(build_dir(), "shotbench")
    try:
        proc = subprocess.run([exe] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("shotbench: binary timed out")
        return 1, ""
    return proc.returncode, proc.stdout


def load_json(path):
    with open(path) as f:
        return json.load(f)


def find_workload(spec, name):
    for wl in spec["workloads"]:
        if wl["name"] == name:
            return wl
    log("shotbench: unknown workload", repr(name), "- known:",
        ", ".join(w["name"] for w in spec["workloads"]))
    return None


def self_test(spec):
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    problems = []

    def expect(ok, what):
        if not ok:
            problems.append(what)
            log("self-test FAILED:", what)

    names = [w["name"] for w in spec["workloads"]]
    expect(names == [w["name"] for w in bench["workloads"]],
           "spec.json and BENCHMARK.json list the same workloads")
    layer_metrics = [m for layer in spec["layers"] for m in layer["metrics"]]
    expect(sorted(layer_metrics) == sorted(m["name"] for m in bench["per_layer"]),
           "spec.json layer map covers exactly the per_layer metrics")

    shots = spec["self_test_shots"]
    table = []
    for wl in spec["workloads"]:
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            code, out = run_binary(binary_args(spec, wl, 1, 1, trace, shots))
            lines = out.strip().splitlines()
            label = "%s --trace %d" % (wl["name"], trace)
            expect(code == 0 and lines, label + ": exits 0 with output")
            if not lines:
                continue
            result = json.loads(lines[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   label + ": result keys")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 3,
                   label + ": output checks ran and passed")
            got = result["metrics"]
            expect(sorted(got) == sorted(m["name"] for m in wanted),
                   label + ": emits exactly the BENCHMARK.json metrics")
            for m in wanted:
                entry = got.get(m["name"], {})
                expect(entry.get("unit") == m["unit"]
                       and isinstance(entry.get("value"), (int, float)),
                       "%s: %s has unit %s" % (label, m["name"], m["unit"]))
            if trace:
                trace_file = binary_args(spec, wl, 1, 1, 1)[-1]
                with open(trace_file) as f:
                    events = json.load(f)["traceEvents"]
                expect(any(e["name"] == "decode" for e in events),
                       label + ": trace-event file holds decode spans")
                table += [l for l in lines if l.startswith("| %s |" % wl["name"])]

    # The checks must be able to fail: a wrong reference rate is caught.
    wl = spec["workloads"][0]
    code, out = run_binary(binary_args(spec, wl, 1, 1, 0, shots, ref_rate=0.5))
    lines = out.strip().splitlines()
    expect(code != 0 and lines and not json.loads(lines[-1])["correct"],
           "a wrong reference rate fails the output checks")

    print("\nper-stage split at %d shots per call (thread time per shot)" % shots)
    print("| workload | setup ms | resolve us/shot | replay us/shot "
          "| sample total us/shot | decode us/shot |")
    print("|---|---|---|---|---|---|")
    for row in table:
        print(row)
    print("\nself-test: %s" % ("ok" if not problems else
                               "%d problem(s)" % len(problems)))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    spec = load_json(os.path.join(HERE, "spec.json"))
    if not build(build_dir(), worker_count(spec)):
        return 1
    if args.self_test:
        return self_test(spec)
    if not args.workload:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    wl = find_workload(spec, args.workload)
    if wl is None:
        return 2
    code, out = run_binary(binary_args(spec, wl, args.seed, args.seconds,
                                       args.trace))
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
