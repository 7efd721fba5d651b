#!/usr/bin/env bash
# Run hetarch-lint over every .circ fixture and pin the CLI contract:
#
#   good/    must pass --strict, and the --format=json document must
#            parse with strict_clean=true
#   bad/     must be rejected under --strict --distance with exactly
#            the code of the file's required "# expect-exit:" annotation
#            (1 = parse failure, 2 = findings); an unannotated file
#            fails, so a defect cannot move between the two unseen
#   faults/  structurally clean circuits with injected fault-tolerance
#            damage; each file's "# expect-distance:" and
#            "# expect-finding:" annotations are checked against the
#            --distance --format=json output
#   timing/  structurally clean circuits with schedule-layer damage;
#            each file's "# timing-device:" / "# storage-device:" /
#            "# storage-qubits:" / "# expect-latency:" /
#            "# expect-hazard:" annotations are swept through --timing,
#            hazard-free fixtures must exit 0 with the annotated
#            latency, hazardous ones must exit 2 with the annotated
#            pass in the hetarch-sched-v1 JSON; one negative self-check
#            perturbs every duration (--scale-durations=2) and demands
#            the latency pin then fails
#   flow/    structurally clean circuits with qubit-movement damage;
#            the same register annotations plus "# flow-stale-after:" /
#            "# expect-flow-hazard:" / "# expect-peak-storage:" /
#            "# expect-budget:" are swept through --flow, hazard-free
#            fixtures must exit 0 with the annotated peak occupancy
#            pinned via --expect-peak-storage, hazardous ones must exit
#            2 under --strict with exactly the annotated pass set in
#            the hetarch-flow-v1 JSON; expect-budget caps the certified
#            end-to-end budget (which must also be > 0); one negative
#            self-check demands peak+1 on a clean fixture and must fail
#   builders/ the three --builders sweeps (--strict, --timing, --flow,
#            each with --distance --format=json), byte for byte: fault
#            distances, union bounds, schedules and flow budgets end to
#            end.  The numbers are exact doubles, some derived through
#            libm (std::exp in the idle twirl); regenerate a golden
#            only for a change meant to move them, never to pass
#
# Also pins the exit-code contract: 0 clean / 1 unreadable-or-parse
# failure / 2 findings above threshold (--strict promotes warnings).
#
# JSON assertions need python3; without it only exit codes are checked.
# Registered with CTest as lint.fixtures; also runnable by hand:
#   scripts/check_lint_clean.sh build/tools/hetarch-lint
set -u

case "${1:-}" in
    -h|--help) grep '^#' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
esac

LINT=${1:?usage: check_lint_clean.sh path/to/hetarch-lint [fixtures-dir]}
DIR=${2:-$(dirname "$0")/../tests/lint/fixtures}
if [ ! -x "$LINT" ]; then
    echo "error: hetarch-lint binary '$LINT' not found or not executable" \
         "(build first: cmake --build build --target hetarch-lint)" >&2
    exit 1
fi
if [ ! -d "$DIR" ]; then
    echo "error: fixtures directory '$DIR' not found" >&2
    exit 1
fi
PYTHON=$(command -v python3 || true)

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

fail=0
shopt -s nullglob

# check_json FILE.json EXPECT_STRICT_CLEAN EXPECT_DISTANCE EXPECT_PASS
# Empty expectation strings skip that check.
check_json() {
    [ -n "$PYTHON" ] || return 0
    "$PYTHON" - "$1" "$2" "$3" "$4" <<'PYEOF'
import json, sys
path, strict_clean, distance, finding_pass = sys.argv[1:5]
with open(path) as fh:
    doc = json.load(fh)
if doc["schema"] != "hetarch-lint-v1":
    sys.exit(f"{path}: unexpected schema {doc['schema']!r}")
f = doc["files"][0]
if strict_clean and f["strict_clean"] != (strict_clean == "true"):
    sys.exit(f"{path}: strict_clean={f['strict_clean']}, "
             f"expected {strict_clean}")
if distance:
    want = None if distance == "unbounded" else int(distance)
    got = f["faults"]["min_distance"] if f["faults"] else "<no faults>"
    if got != want:
        sys.exit(f"{path}: min_distance={got}, expected {want}")
if finding_pass:
    passes = sorted({x["pass"] for x in f["findings"]})
    if finding_pass not in passes:
        sys.exit(f"{path}: no finding from pass {finding_pass!r}; "
                 f"have {passes}")
PYEOF
}

annotation() { # FILE KEY -> value or empty
    sed -n "s/^# $2: *//p" "$1" | head -n 1
}

for f in "$DIR"/good/*.circ; do
    if ! "$LINT" --strict --format=json "$f" > "$TMP/out.json" 2>&1; then
        echo "FAIL: expected clean under --strict: $f"
        "$LINT" --strict "$f"
        fail=1
    elif ! check_json "$TMP/out.json" true "" ""; then
        echo "FAIL: JSON report for $f"
        fail=1
    fi
done

for f in "$DIR"/bad/*.circ; do
    expect_exit=$(annotation "$f" expect-exit)
    "$LINT" --strict --distance "$f" > /dev/null 2>&1
    rc=$?
    if [ "$expect_exit" != 1 ] && [ "$expect_exit" != 2 ]; then
        echo "FAIL: bad fixture needs '# expect-exit: 1' or '2': $f"
        fail=1
    elif [ "$rc" -ne "$expect_exit" ]; then
        echo "FAIL: expected exit $expect_exit, got $rc: $f"
        fail=1
    fi
done

for f in "$DIR"/faults/*.circ; do
    expect_distance=$(annotation "$f" expect-distance)
    expect_finding=$(annotation "$f" expect-finding)
    "$LINT" --distance --format=json "$f" > "$TMP/out.json" 2>&1
    rc=$?
    # Fault fixtures are structurally clean: only lint findings (exit
    # 2) may reject them, never a parse failure.
    if [ "$rc" -ne 0 ] && [ "$rc" -ne 2 ]; then
        echo "FAIL: fault fixture did not parse (exit $rc): $f"
        fail=1
    elif ! check_json "$TMP/out.json" "" "$expect_distance" \
                      "$expect_finding"; then
        echo "FAIL: fault annotations not satisfied: $f"
        fail=1
    fi
done

# check_sched_json FILE.json EXPECT_HAZARD_PASSES (space-separated; "" = none)
check_sched_json() {
    [ -n "$PYTHON" ] || return 0
    "$PYTHON" - "$1" "$2" <<'PYEOF'
import json, sys
path, hazard_passes = sys.argv[1:3]
with open(path) as fh:
    doc = json.load(fh)
if doc["schema"] != "hetarch-sched-v1":
    sys.exit(f"{path}: unexpected schema {doc['schema']!r}")
f = doc["files"][0]
have = sorted({h["pass"] for h in f["hazards"]})
want = sorted(set(hazard_passes.split()))
if have != want:
    sys.exit(f"{path}: hazard passes {have}, expected {want}")
if f["critical_path_ns"] <= 0:
    sys.exit(f"{path}: non-positive critical path")
PYEOF
}

# Assemble the --timing invocation a fixture's annotations describe.
timing_args() { # FILE -> sets TIMING_ARGS array
    TIMING_ARGS=(--timing)
    local dev storage qubits
    dev=$(annotation "$1" timing-device)
    [ -n "$dev" ] && TIMING_ARGS+=("--device=$dev")
    storage=$(annotation "$1" storage-device)
    [ -n "$storage" ] && TIMING_ARGS+=("--storage-device=$storage")
    qubits=$(annotation "$1" storage-qubits)
    [ -n "$qubits" ] && TIMING_ARGS+=("--storage-qubits=$qubits")
}

for f in "$DIR"/timing/*.circ; do
    expect_latency=$(annotation "$f" expect-latency)
    expect_hazards=$(sed -n 's/^# expect-hazard: *//p' "$f" | tr '\n' ' ')
    expect_hazards=${expect_hazards% }
    timing_args "$f"
    latency_args=()
    [ -n "$expect_latency" ] && \
        latency_args=("--expect-latency=$expect_latency")

    "$LINT" "${TIMING_ARGS[@]}" "${latency_args[@]}" --format=json \
        "$f" > "$TMP/out.json" 2>&1
    rc=$?
    if [ -z "$expect_hazards" ]; then
        # sched-reset-gap is warning-severity: promote it with --strict
        # so warning fixtures are still rejected below.
        if [ "$rc" -ne 0 ]; then
            echo "FAIL: expected clean timing run (exit 0, got $rc): $f"
            fail=1
        fi
    else
        "$LINT" --strict "${TIMING_ARGS[@]}" "$f" > /dev/null 2>&1
        if [ $? -ne 2 ]; then
            echo "FAIL: expected hazard rejection (exit 2): $f"
            fail=1
        fi
    fi
    if ! check_sched_json "$TMP/out.json" "$expect_hazards"; then
        echo "FAIL: sched annotations not satisfied: $f"
        fail=1
    fi

    # Negative self-check: doubling every duration must break the
    # annotated latency pin (exit 2), proving the pin has teeth.
    if [ -n "$expect_latency" ]; then
        "$LINT" "${TIMING_ARGS[@]}" --scale-durations=2 \
            "--expect-latency=$expect_latency" "$f" > /dev/null 2>&1
        if [ $? -ne 2 ]; then
            echo "FAIL: perturbed durations did not break the" \
                 "latency pin: $f"
            fail=1
        fi
    fi
done

# check_flow_json FILE.json EXPECT_HAZARD_PASSES EXPECT_PEAK EXPECT_BUDGET
# Empty expectation strings skip that check (hazards: "" = none).
check_flow_json() {
    [ -n "$PYTHON" ] || return 0
    "$PYTHON" - "$1" "$2" "$3" "$4" <<'PYEOF'
import json, sys
path, hazard_passes, peak, budget_cap = sys.argv[1:5]
with open(path) as fh:
    doc = json.load(fh)
if doc["schema"] != "hetarch-flow-v1":
    sys.exit(f"{path}: unexpected schema {doc['schema']!r}")
f = doc["files"][0]
have = sorted({h["pass"] for h in f["hazards"]})
want = sorted(set(hazard_passes.split()))
if have != want:
    sys.exit(f"{path}: hazard passes {have}, expected {want}")
if peak and f["peak_storage"] != int(peak):
    sys.exit(f"{path}: peak_storage={f['peak_storage']}, "
             f"expected {peak}")
if budget_cap:
    budgets = [o["budget"] for o in f["observables"]]
    worst = max(budgets) if budgets else 0.0
    if not 0.0 < worst <= float(budget_cap):
        sys.exit(f"{path}: certified budget {worst} outside "
                 f"(0, {budget_cap}]")
PYEOF
}

# Assemble the --flow invocation a fixture's annotations describe.  The
# register annotations are shared with timing_args; expect-budget turns
# on --distance so the gate union bound composes into the budget.
flow_args() { # FILE -> sets FLOW_ARGS array
    FLOW_ARGS=(--flow)
    local dev storage qubits stale
    dev=$(annotation "$1" timing-device)
    [ -n "$dev" ] && FLOW_ARGS+=("--device=$dev")
    storage=$(annotation "$1" storage-device)
    [ -n "$storage" ] && FLOW_ARGS+=("--storage-device=$storage")
    qubits=$(annotation "$1" storage-qubits)
    [ -n "$qubits" ] && FLOW_ARGS+=("--storage-qubits=$qubits")
    stale=$(annotation "$1" flow-stale-after)
    [ -n "$stale" ] && FLOW_ARGS+=("--stale-after=$stale")
    [ -n "$(annotation "$1" expect-budget)" ] && \
        FLOW_ARGS+=(--distance)
}

for f in "$DIR"/flow/*.circ; do
    expect_hazards=$(sed -n 's/^# expect-flow-hazard: *//p' "$f" |
                     tr '\n' ' ')
    expect_hazards=${expect_hazards% }
    expect_peak=$(annotation "$f" expect-peak-storage)
    expect_budget=$(annotation "$f" expect-budget)
    flow_args "$f"
    peak_args=()
    [ -n "$expect_peak" ] && \
        peak_args=("--expect-peak-storage=$expect_peak")

    "$LINT" "${FLOW_ARGS[@]}" "${peak_args[@]}" --format=json \
        "$f" > "$TMP/out.json" 2>&1
    rc=$?
    if [ -z "$expect_hazards" ]; then
        if [ "$rc" -ne 0 ]; then
            echo "FAIL: expected clean flow run (exit 0, got $rc): $f"
            fail=1
        fi
        # Negative self-check: demanding one more mode of peak
        # occupancy must break the pin (exit 2), proving it has teeth.
        if [ -n "$expect_peak" ]; then
            "$LINT" "${FLOW_ARGS[@]}" \
                "--expect-peak-storage=$((expect_peak + 1))" \
                "$f" > /dev/null 2>&1
            if [ $? -ne 2 ]; then
                echo "FAIL: perturbed peak-storage pin did not" \
                     "fail: $f"
                fail=1
            fi
        fi
    else
        # flow warnings (stale/orphan/reuse) need --strict promotion.
        "$LINT" --strict "${FLOW_ARGS[@]}" "$f" > /dev/null 2>&1
        if [ $? -ne 2 ]; then
            echo "FAIL: expected flow hazard rejection (exit 2): $f"
            fail=1
        fi
    fi
    if ! check_flow_json "$TMP/out.json" "$expect_hazards" \
                         "$expect_peak" "$expect_budget"; then
        echo "FAIL: flow annotations not satisfied: $f"
        fail=1
    fi
done

for sweep in strict timing flow; do
    "$LINT" "--$sweep" --distance --builders --format=json \
        > "$TMP/sweep.json"
    if ! cmp -s "$TMP/sweep.json" "$DIR/builders/$sweep.json"; then
        echo "FAIL: --$sweep --distance --builders report differs" \
             "from builders/$sweep.json"
        fail=1
    fi
done

# --- exit-code contract -----------------------------------------------
expect_rc() { # DESCRIPTION EXPECTED_RC CMD...
    local desc=$1 want=$2
    shift 2
    "$@" > /dev/null 2>&1
    local got=$?
    if [ "$got" -ne "$want" ]; then
        echo "FAIL: $desc: exit $got, expected $want"
        fail=1
    fi
}

expect_rc "clean file exits 0" 0 \
    "$LINT" --strict "$DIR/good/bell_pair.circ"
expect_rc "unreadable file exits 1" 1 \
    "$LINT" "$DIR/does_not_exist.circ"
expect_rc "usage error exits 1" 1 \
    "$LINT" --expect-distance=3 "$DIR/good/bell_pair.circ"
# miswired_observable carries a warning-level finding only: accepted by
# default, rejected by --strict (the contract this PR makes explicit).
expect_rc "warnings accepted without --strict" 0 \
    "$LINT" --distance "$DIR/faults/miswired_observable.circ"
expect_rc "--strict fails on warnings" 2 \
    "$LINT" --strict --distance "$DIR/faults/miswired_observable.circ"
# Numeric flags take a whole token: no sign or blank on counts, and
# doubles must be finite.
GOOD=$DIR/good/bell_pair.circ
expect_rc "--max-weight=-1 is a usage error" 1 \
    "$LINT" --distance --max-weight=-1 "$GOOD"
expect_rc "--max-weight=' 3' is a usage error" 1 \
    "$LINT" --distance "--max-weight= 3" "$GOOD"
expect_rc "--max-weight beyond the mechanism count is valid" 0 \
    "$LINT" --distance --max-weight=100000000000000 "$GOOD"
expect_rc "--scale-durations=nan is a usage error" 1 \
    "$LINT" --timing --scale-durations=nan "$GOOD"
expect_rc "--expect-latency=nan is a usage error" 1 \
    "$LINT" --timing --expect-latency=nan "$GOOD"
expect_rc "--expect-latency=inf is a usage error" 1 \
    "$LINT" --timing --expect-latency=inf "$GOOD"
expect_rc "--stale-after=nan is a usage error" 1 \
    "$LINT" --flow --stale-after=nan "$GOOD"

if [ "$fail" -eq 0 ]; then
    echo "all fixtures behave as expected"
fi
exit "$fail"
