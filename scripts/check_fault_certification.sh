#!/usr/bin/env bash
# Distance-certification gate for CI.
#
# Positive checks: the fault-path analyzer must certify distance d for
# the d x d surface-code memory builders, d in {3, 5, 7}, and the whole
# builder surface must be coverage-clean under --strict --distance.
#
# Negative self-check (bench-regression style): a perturbed circuit —
# surface-d3 with its first DETECTOR dropped, and the dropped-detector
# corpus fixture — must FAIL its baseline-distance gate.  This proves
# the gate can actually reject a regression, so a silently broken
# analyzer cannot pass CI by certifying everything.
#
# Registered with CTest as lint.certification; also runnable by hand:
#   scripts/check_fault_certification.sh build/tools/hetarch-lint
set -u

case "${1:-}" in
    -h|--help) grep '^#' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
esac

LINT=${1:?usage: check_fault_certification.sh path/to/hetarch-lint [fixtures-dir]}
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
fail=0

for d in 3 5 7; do
    if ! "$LINT" --distance "--expect-distance=$d" \
         "--builders=surface-d$d" > /dev/null; then
        echo "FAIL: surface-d$d did not certify distance $d"
        fail=1
    fi
done

if ! "$LINT" --strict --distance --builders \
     > /dev/null; then
    echo "FAIL: builder sweep not coverage-clean under --strict --distance"
    "$LINT" --strict --distance --builders
    fail=1
fi

if "$LINT" --distance --drop-detector=0 \
   --expect-distance=3 --builders=surface-d3 > /dev/null 2>&1; then
    echo "FAIL: gate accepted a detector-dropped surface-d3 circuit"
    fail=1
fi

if "$LINT" --distance --expect-distance=3 \
   "$DIR/faults/dropped_detector.circ" > /dev/null 2>&1; then
    echo "FAIL: gate accepted dropped_detector.circ at baseline distance"
    fail=1
fi

if [ "$fail" -eq 0 ]; then
    echo "distance certification gate holds (d=3,5,7 + negative self-check)"
fi
exit "$fail"
