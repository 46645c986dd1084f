#!/usr/bin/env sh
# fleet_smoke.sh: end-to-end smoke test of the tcfleet coordinator.
#
# Builds tcsimd, tcfleet and tcsim, starts two tcsimd workers on
# ephemeral ports, launches a fleet sweep, SIGKILLs one worker as soon
# as the first shard completes, and checks the coordinator's one
# contract: the merged digest equals the digest `tcsim sweep -digest`
# computes offline for the same grid — fleet size, shard order and the
# mid-sweep worker death notwithstanding. Then it runs two grids that
# differ in -measure under one reused job ID on the surviving worker:
# each must give its own offline digest, not the other run's.
#
# Used by `make fleet-smoke` and the CI fleet-smoke job.
set -eu

GO=${GO:-go}
WORK=$(mktemp -d)
PID1=""
PID2=""
FLEET_PID=""
cleanup() {
    for p in "$PID1" "$PID2" "$FLEET_PID"; do
        [ -n "$p" ] && kill "$p" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "fleet-smoke: building tcsimd, tcfleet and tcsim"
$GO build -o "$WORK/tcsimd" ./cmd/tcsimd
$GO build -o "$WORK/tcfleet" ./cmd/tcfleet
$GO build -o "$WORK/tcsim" ./cmd/tcsim

start_worker() {
    # $1 = stdout file. Prints "URL PID" on one line. Runs in a command
    # substitution, so the caller parses both values from stdout.
    "$WORK/tcsimd" -addr 127.0.0.1:0 -job-workers 2 >"$1" 2>"$1.err" &
    pid=$!
    ADDR=""
    i=0
    while [ $i -lt 100 ]; do
        ADDR=$(sed -n 's/^tcsimd: listening on //p' "$1")
        [ -n "$ADDR" ] && break
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "fleet-smoke: tcsimd exited early" >&2
            cat "$1.err" >&2
            exit 1
        fi
        sleep 0.1
        i=$((i + 1))
    done
    if [ -z "$ADDR" ]; then
        echo "fleet-smoke: tcsimd never printed its listen banner" >&2
        cat "$1.err" >&2
        exit 1
    fi
    echo "$ADDR $pid"
}

set -- $(start_worker "$WORK/w1.out")
W1=$1
PID1=$2
set -- $(start_worker "$WORK/w2.out")
W2=$1
PID2=$2
echo "fleet-smoke: workers up at $W1 (pid $PID1) and $W2 (pid $PID2)"

GRID="-workloads microbenchmark,volano -policies default,round-robin,clustered -warm 10 -engine 20 -measure 10 -seed 5"

# shellcheck disable=SC2086 # word-splitting the grid flags is the point
OFFLINE=$("$WORK/tcsim" sweep -digest $GRID 2>/dev/null)
echo "fleet-smoke: offline digest $OFFLINE"

# Launch the fleet run in the background so we can kill a worker while
# it is still sweeping.
# shellcheck disable=SC2086
"$WORK/tcfleet" -workers "$W1,$W2" $GRID \
    -events "$WORK/events.ndjson" -digest \
    >"$WORK/fleet.out" 2>"$WORK/fleet.err" &
FLEET_PID=$!

# SIGKILL worker 2 the moment the first shard lands — the coordinator
# must route its remaining shards to worker 1 and still converge.
i=0
while [ $i -lt 300 ]; do
    if grep -q '"type":"shard_done"' "$WORK/events.ndjson" 2>/dev/null; then
        break
    fi
    if ! kill -0 "$FLEET_PID" 2>/dev/null; then
        break # fleet already finished; the kill below is a no-op
    fi
    sleep 0.1
    i=$((i + 1))
done
kill -9 "$PID2" 2>/dev/null || true
PID2=""
echo "fleet-smoke: SIGKILLed worker 2 mid-sweep"

if ! wait "$FLEET_PID"; then
    echo "fleet-smoke: tcfleet failed" >&2
    cat "$WORK/fleet.err" >&2
    cat "$WORK/events.ndjson" >&2 || true
    exit 1
fi
FLEET_PID=""

MERGED=$(cat "$WORK/fleet.out")
if [ "$MERGED" != "$OFFLINE" ]; then
    echo "fleet-smoke: DIGEST MISMATCH: offline=$OFFLINE fleet=$MERGED" >&2
    cat "$WORK/events.ndjson" >&2 || true
    exit 1
fi
echo "fleet-smoke: merged digest matches offline: $MERGED"

for ev in '"type":"shard_leased"' '"type":"done"'; do
    if ! grep -q "$ev" "$WORK/events.ndjson"; then
        echo "fleet-smoke: event stream lacks $ev" >&2
        cat "$WORK/events.ndjson" >&2
        exit 1
    fi
done
echo "fleet-smoke: event stream carries lease and completion events"

# A rerun under a reused job ID, of another spec, computes its own shards
# on the surviving worker rather than attaching to the first run's jobs.
for MEASURE in 10 12; do
    # shellcheck disable=SC2086
    WANT=$("$WORK/tcsim" sweep -digest $GRID -measure $MEASURE 2>/dev/null)
    # shellcheck disable=SC2086
    if ! GOT=$("$WORK/tcfleet" -workers "$W1" -id smoke-reuse $GRID -measure $MEASURE -digest 2>"$WORK/reuse.err"); then
        echo "fleet-smoke: tcfleet -id smoke-reuse -measure $MEASURE failed" >&2
        cat "$WORK/reuse.err" >&2
        exit 1
    fi
    if [ "$GOT" != "$WANT" ]; then
        echo "fleet-smoke: REUSED ID MISMATCH at -measure $MEASURE: offline=$WANT fleet=$GOT" >&2
        exit 1
    fi
done
echo "fleet-smoke: two specs under one reused job ID each match their own offline digest"

kill "$PID1"
wait "$PID1" 2>/dev/null || true
PID1=""
echo "fleet-smoke: ok"
