#!/usr/bin/env sh
# snapshot_smoke.sh: end-to-end smoke test of the snapshot/restore and
# daemon resume paths.
#
# Two contracts are pinned:
#
#   1. Machine snapshots: `tcsim snapshot` run for N+M rounds in one go
#      and as a snapshot/resume pair at N produces byte-identical
#      snapshot files (the canonical encoding is a pure function of the
#      simulated state), the digest each run prints — streamed, never
#      materialised — is the SHA-256 of the file it wrote, and a resume
#      under a different -seed fails.
#   2. Daemon resume: a tcsimd SIGKILLed with one job running and one
#      queued leaves both jobs' "<seq>-<id>.json" spool files and a
#      record of each completed grid cell; a restarted daemon runs both
#      jobs to the result digests `tcsim sweep -digest` computes offline,
#      and a resubmission of the first grid under a new job ID replays
#      the records to that digest too. Records are keyed by cell, not by
#      grid position, so the first grid with one workload appended
#      replays every old cell (server_cell_records_reused_total rises by
#      the old grid's cell count) and reaches the grown grid's offline
#      digest.
#
# Used by `make snapshot-smoke` and the CI snapshot-smoke job.
set -eu

GO=${GO:-go}
WORK=$(mktemp -d)
PID=""
cleanup() {
    [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "snapshot-smoke: building tcsimd and tcsim"
$GO build -o "$WORK/tcsimd" ./cmd/tcsimd
$GO build -o "$WORK/tcsim" ./cmd/tcsim

# --- 1. split-run snapshot identity ---------------------------------

# file_sum FILE: the hex SHA-256 of FILE.
file_sum() {
    if command -v sha256sum >/dev/null 2>&1; then
        sha256sum "$1" | cut -d' ' -f1
    else
        shasum -a 256 "$1" | cut -d' ' -f1
    fi
}

FULL=$("$WORK/tcsim" snapshot -policy clustered -rounds 80 -out "$WORK/full.snap" 2>/dev/null)
"$WORK/tcsim" snapshot -policy clustered -rounds 50 -out "$WORK/half.snap" >/dev/null 2>&1
RESUMED=$("$WORK/tcsim" snapshot -policy clustered -resume "$WORK/half.snap" -rounds 30 \
    -out "$WORK/resumed.snap" 2>/dev/null)
if ! cmp -s "$WORK/full.snap" "$WORK/resumed.snap"; then
    echo "snapshot-smoke: SNAPSHOT MISMATCH: 80 rounds != 50+30 rounds" >&2
    exit 1
fi
echo "snapshot-smoke: split-run snapshot is byte-identical to the unbroken run"

# The printed digest is hashed from the snapshot's sections as they
# stream past, not from the written bytes: it must still be their hash.
for pair in "$FULL full.snap" "$RESUMED resumed.snap"; do
    # shellcheck disable=SC2086 # split the pair into digest and file
    set -- $pair
    if [ "$1" != "$(file_sum "$WORK/$2")" ]; then
        echo "snapshot-smoke: DIGEST MISMATCH: printed $1, sha256 of $2 is $(file_sum "$WORK/$2")" >&2
        exit 1
    fi
done
echo "snapshot-smoke: printed digests are the SHA-256 of the written snapshots: $FULL"

# A snapshot belongs to its run seed: resuming it under another -seed
# must fail instead of continuing the snapshot's run under a new name.
if "$WORK/tcsim" snapshot -policy clustered -resume "$WORK/half.snap" -seed 2 \
    -rounds 30 -out "$WORK/foreign.snap" >/dev/null 2>&1; then
    echo "snapshot-smoke: resume with a mismatched -seed exited 0" >&2
    exit 1
fi
echo "snapshot-smoke: resume with a mismatched -seed is refused"

# --- 2. daemon kill, resume, replay ---------------------------------

SPOOL="$WORK/spool"
mkdir -p "$SPOOL"

start_daemon() {
    : >"$WORK/stdout"
    "$WORK/tcsimd" -addr 127.0.0.1:0 -job-workers 1 \
        -spool "$SPOOL" -grace 0s \
        >"$WORK/stdout" 2>"$WORK/stderr" &
    PID=$!
    ADDR=""
    i=0
    while [ $i -lt 100 ]; do
        ADDR=$(sed -n 's/^tcsimd: listening on //p' "$WORK/stdout")
        [ -n "$ADDR" ] && break
        if ! kill -0 "$PID" 2>/dev/null; then
            echo "snapshot-smoke: tcsimd exited early" >&2
            cat "$WORK/stderr" >&2
            exit 1
        fi
        sleep 0.1
        i=$((i + 1))
    done
    if [ -z "$ADDR" ]; then
        echo "snapshot-smoke: tcsimd never printed its listen banner" >&2
        cat "$WORK/stderr" >&2
        exit 1
    fi
}

fetch() {
    if command -v curl >/dev/null 2>&1; then
        curl -fsS "$1"
    else
        wget -qO- "$1"
    fi
}

GRID="-workloads microbenchmark,volano -policies default,clustered -warm 100 -engine 300 -measure 100 -seed 5"
QGRID="-workloads microbenchmark -policies default,clustered -warm 20 -engine 50 -measure 20 -seed 6"
GROWN="-workloads microbenchmark,volano,rubis -policies default,clustered -warm 100 -engine 300 -measure 100 -seed 5"
GRID_CELLS=4

# shellcheck disable=SC2086 # word-splitting the grid flags is the point
OFFLINE=$("$WORK/tcsim" sweep -digest $GRID 2>/dev/null)
# shellcheck disable=SC2086
QOFFLINE=$("$WORK/tcsim" sweep -digest $QGRID 2>/dev/null)
# shellcheck disable=SC2086
GOFFLINE=$("$WORK/tcsim" sweep -digest $GROWN 2>/dev/null)

start_daemon
echo "snapshot-smoke: daemon up at $ADDR (spool $SPOOL)"

# Admit two jobs without waiting: the daemon's one worker runs the
# first, the second queues behind it. Then let the first run until its
# first completed grid cell is recorded.
# shellcheck disable=SC2086
"$WORK/tcsim" submit -addr "$ADDR" -id kill-job -wait=false $GRID >/dev/null 2>&1
# shellcheck disable=SC2086
"$WORK/tcsim" submit -addr "$ADDR" -id queued-job -wait=false $QGRID >/dev/null 2>&1

i=0
while :; do
    set -- "$SPOOL"/cells/*.json
    [ -e "$1" ] && break
    if [ $i -ge 300 ]; then
        echo "snapshot-smoke: no cell record appeared within 30s" >&2
        cat "$WORK/stderr" >&2
        exit 1
    fi
    sleep 0.1
    i=$((i + 1))
done

# Kill the daemon outright: no drain, no settle, nothing flushed on the
# way out. The spool files admission wrote and the records already
# written are all the next start gets.
kill -KILL "$PID"
wait "$PID" 2>/dev/null || true
PID=""
for f in 00000000-kill-job.json 00000001-queued-job.json; do
    if [ ! -f "$SPOOL/$f" ]; then
        echo "snapshot-smoke: spool file $f missing after the kill" >&2
        ls -l "$SPOOL" >&2
        exit 1
    fi
done
echo "snapshot-smoke: daemon killed mid-job; both jobs' spool files and $# cell record(s) survive"

# Restart onto the same spool: both files re-admit their jobs in seq
# order; the running one replays its recorded cells and computes the
# rest.
start_daemon
echo "snapshot-smoke: daemon restarted at $ADDR"

# wait_digest ID WANT: poll job ID until it is done and require its
# digest to equal WANT.
wait_digest() {
    STATE=""
    i=0
    while [ $i -lt 600 ]; do
        STATUS=$(fetch "$ADDR/v1/jobs/$1" 2>/dev/null || true)
        STATE=$(printf '%s' "$STATUS" | sed -n 's/.*"state": *"\([a-z]*\)".*/\1/p')
        case "$STATE" in
        done) break ;;
        failed | canceled)
            echo "snapshot-smoke: resumed job $1 ended $STATE: $STATUS" >&2
            exit 1
            ;;
        esac
        sleep 0.1
        i=$((i + 1))
    done
    if [ "$STATE" != "done" ]; then
        echo "snapshot-smoke: resumed job $1 never finished (last state: $STATE)" >&2
        cat "$WORK/stderr" >&2
        exit 1
    fi
    REMOTE=$(printf '%s' "$STATUS" | sed -n 's/.*"digest": *"\([a-z0-9:]*\)".*/\1/p')
    if [ "$2" != "$REMOTE" ]; then
        echo "snapshot-smoke: DIGEST MISMATCH for $1: offline=$2 resumed=$REMOTE" >&2
        exit 1
    fi
    echo "snapshot-smoke: $1 digest matches the offline sweep: $REMOTE"
}
wait_digest kill-job "$OFFLINE"
wait_digest queued-job "$QOFFLINE"

# The same grid under a new job ID is all record hits: same digest.
# shellcheck disable=SC2086
AGAIN=$("$WORK/tcsim" submit -addr "$ADDR" -id again-job -digest $GRID 2>/dev/null)
if [ "$OFFLINE" != "$AGAIN" ]; then
    echo "snapshot-smoke: DIGEST MISMATCH: offline=$OFFLINE resubmitted=$AGAIN" >&2
    exit 1
fi
echo "snapshot-smoke: resubmission under a new ID replays to the same digest"

# reused: the daemon's server_cell_records_reused_total.
reused() {
    fetch "$ADDR/metrics" | sed -n 's/^server_cell_records_reused_total \([0-9]*\)$/\1/p'
}

# The grid with one workload appended keeps every old cell's seed, so it
# replays all of the first grid's records and computes only the new
# workload's cells.
BEFORE=$(reused)
# shellcheck disable=SC2086
GROWN_DIGEST=$("$WORK/tcsim" submit -addr "$ADDR" -id grown-job -digest $GROWN 2>/dev/null)
AFTER=$(reused)
if [ "$GOFFLINE" != "$GROWN_DIGEST" ]; then
    echo "snapshot-smoke: DIGEST MISMATCH: grown grid offline=$GOFFLINE daemon=$GROWN_DIGEST" >&2
    exit 1
fi
if [ -z "$BEFORE" ] || [ -z "$AFTER" ] || [ $((AFTER - BEFORE)) -ne $GRID_CELLS ]; then
    echo "snapshot-smoke: grown grid reused $BEFORE -> $AFTER records, want a rise of $GRID_CELLS" >&2
    exit 1
fi
echo "snapshot-smoke: grid grown by a workload replays its $GRID_CELLS old cells and matches the offline digest"

kill "$PID"
wait "$PID" 2>/dev/null || true
PID=""
echo "snapshot-smoke: ok"
