#!/usr/bin/env bash
# End-to-end smoke gate for the experiment job service (CI runs this).
#
# Drives hetarch-serve over the hetarch-job-v1 wire protocol with a
# scripted client session built by hetarch-job:
#
#   - five submits against a deliberately tiny queue
#     (--hold --max-queue=3): memory, sweep-point, analysis are
#     accepted; the fourth (distill) must be REJECTED by admission
#     control, and the fifth (memory at d = 25 with 100,000 rounds)
#     by the memory-job size cap (kMaxDistanceSqRounds), which the
#     daemon checks before it would build a ~1e9-op circuit
#   - job 2 cancelled while queued
#   - wait (runs the surviving batch to completion), then shutdown
#
# The transcript must strict-parse under `hetarch-job check`, and the
# service.jobs.* bye tallies must match exactly:
#   submitted=3 completed=2 cancelled=1 rejected=2 failed=0
#
# Negative self-checks prove the gate has teeth:
#   - a malformed request line makes hetarch-serve exit 2
#   - a corrupted transcript makes `hetarch-job check` exit 1
#   - an empty transcript makes `hetarch-job check` exit 1
#   - wrong --require-counters makes `hetarch-job check` exit 2
#   - signed, overflowing or over-cap numeric flags make
#     hetarch-serve exit 1 (probed with empty stdin)
#
# The request script and transcript are left in OUT-DIR so CI can
# upload them as artifacts.
#
# Registered with CTest as service.smoke; also runnable by hand:
#   scripts/check_service_smoke.sh build/tools service-smoke-out
set -u

case "${1:-}" in
    -h|--help) grep '^#' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
esac

BIN=${1:?usage: check_service_smoke.sh path/to/tools-bin-dir [out-dir]}
OUT=${2:-service-smoke-out}
SERVE="$BIN/hetarch-serve"
JOB="$BIN/hetarch-job"
for tool in "$SERVE" "$JOB"; do
    if [ ! -x "$tool" ]; then
        echo "error: service binary '$tool' not found or not executable" \
             "(build first: cmake --build build --target" \
             "hetarch-serve hetarch-job)" >&2
        exit 1
    fi
done
mkdir -p "$OUT"

fail=0

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

# --- the scripted session ---------------------------------------------
{
    "$JOB" submit --kind=memory --name=m1 --seed=7 \
        --param distance=3 --param rounds=3 --param shots=200
    "$JOB" submit --kind=sweep-point --name=sp --seed=11 --priority=5 \
        --param distance=3 --param rounds=3 --param shots=100
    "$JOB" submit --kind=analysis --name=an \
        --param builder=surface-d3 --param distance=1 --param timing=1
    "$JOB" submit --kind=distill --name=reject-me --seed=13 \
        --param trajectories=2 --param horizon_us=10
    "$JOB" submit --kind=memory --name=oversize --seed=17 \
        --param distance=25 --param rounds=100000 --param shots=1
    "$JOB" cancel --id=2
    "$JOB" wait
    "$JOB" shutdown
} > "$OUT/requests.jsonl"

"$SERVE" --hold --max-queue=3 \
    < "$OUT/requests.jsonl" > "$OUT/transcript.jsonl"
rc=$?
if [ "$rc" -ne 0 ]; then
    echo "FAIL: hetarch-serve exited $rc on a clean session"
    cat "$OUT/transcript.jsonl"
    fail=1
fi

if ! "$JOB" check \
     --require-counters=submitted=3,completed=2,cancelled=1,rejected=2,failed=0 \
     < "$OUT/transcript.jsonl"; then
    echo "FAIL: transcript did not validate under hetarch-job check"
    cat "$OUT/transcript.jsonl"
    fail=1
fi

done_count=$(grep -c '"state":"done"' "$OUT/transcript.jsonl")
if [ "$done_count" -ne 2 ]; then
    echo "FAIL: expected 2 done status lines, saw $done_count"
    fail=1
fi

if ! grep '"name":"oversize"' "$OUT/transcript.jsonl" |
     grep -q '"type":"rejected".*kMaxDistanceSqRounds'; then
    echo "FAIL: the oversize memory job was not rejected by the size cap"
    fail=1
fi

# --- negative self-checks ---------------------------------------------
expect_rc "malformed request makes the daemon exit 2" 2 \
    bash -c "printf 'not a request\n' | '$SERVE'"

sed 's/"type":"bye"/"type":"byebye"/' "$OUT/transcript.jsonl" \
    > "$OUT/corrupted.jsonl"
expect_rc "corrupted transcript fails strict parse" 1 \
    "$JOB" check < "$OUT/corrupted.jsonl"

: > "$OUT/empty.jsonl"
expect_rc "empty transcript is rejected" 1 \
    "$JOB" check < "$OUT/empty.jsonl"

expect_rc "wrong counter expectation is caught" 2 \
    bash -c "'$JOB' check --require-counters=submitted=4 \
             < '$OUT/transcript.jsonl'"

# Numeric flags take a whole unsigned token: a sign once wrapped to
# 2^64 - 1 (an unbounded queue, or 2^32 - 1 pool threads), and thread
# requests above the exec cap are fatal.  Empty stdin, so no job runs.
for flag in --threads=-1 --max-queue=-1 --max-concurrent=-1 \
            --threads=4294967296 --threads=1025; do
    expect_rc "hetarch-serve $flag exits 1" 1 \
        bash -c "'$SERVE' $flag < /dev/null"
done

expect_rc "hetarch-serve --help exits 0" 0 "$SERVE" --help
expect_rc "hetarch-job --help exits 0" 0 "$JOB" --help

if [ "$fail" -eq 0 ]; then
    echo "service smoke holds (3 accepted + 2 rejects + cancel + bye tallies)"
fi
exit "$fail"
