#!/usr/bin/env sh
# server_smoke.sh: end-to-end smoke test of the tcsimd job service.
#
# Builds tcsimd and tcsim, starts the daemon on an ephemeral port,
# submits a sweep grid, and checks the two contracts the service makes:
#
#   1. Determinism across the wire: the job's result digest equals the
#      digest `tcsim sweep -digest` computes offline for the same grid.
#   2. Legacy specs: the same grid written as a JSON spec that still
#      names an execution engine ("engine": "seq", a field the daemon's
#      strict decoder accepts and drops) gives that digest too, through
#      `tcsim sweep -spec` and `tcsim submit -spec`.
#   3. One payload form: `tcsim submit` prints the result as a single
#      compact JSON line whose "digest" is that offline digest.
#   4. Observability: /metrics serves Prometheus text with the server
#      series alongside the sim series of the completed job.
#
# Used by `make server-smoke` and the CI server-smoke job.
set -eu

GO=${GO:-go}
WORK=$(mktemp -d)
PID=""
cleanup() {
    [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "server-smoke: building tcsimd and tcsim"
$GO build -o "$WORK/tcsimd" ./cmd/tcsimd
$GO build -o "$WORK/tcsim" ./cmd/tcsim

"$WORK/tcsimd" -addr 127.0.0.1:0 -job-workers 2 >"$WORK/stdout" 2>"$WORK/stderr" &
PID=$!

ADDR=""
i=0
while [ $i -lt 100 ]; do
    ADDR=$(sed -n 's/^tcsimd: listening on //p' "$WORK/stdout")
    [ -n "$ADDR" ] && break
    if ! kill -0 "$PID" 2>/dev/null; then
        echo "server-smoke: tcsimd exited early" >&2
        cat "$WORK/stderr" >&2
        exit 1
    fi
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$ADDR" ]; then
    echo "server-smoke: tcsimd never printed its listen banner" >&2
    cat "$WORK/stderr" >&2
    exit 1
fi
echo "server-smoke: daemon up at $ADDR"

GRID="-workloads microbenchmark,volano -policies default,clustered -warm 10 -engine 20 -measure 10 -seed 5"

# shellcheck disable=SC2086 # word-splitting the grid flags is the point
OFFLINE=$("$WORK/tcsim" sweep -digest $GRID 2>/dev/null)
# shellcheck disable=SC2086
REMOTE=$("$WORK/tcsim" submit -addr "$ADDR" -digest $GRID 2>/dev/null)

if [ "$OFFLINE" != "$REMOTE" ]; then
    echo "server-smoke: DIGEST MISMATCH: offline=$OFFLINE server=$REMOTE" >&2
    exit 1
fi
echo "server-smoke: digests match: $REMOTE"

cat >"$WORK/legacy.json" <<'EOF'
{
  "workloads": ["microbenchmark", "volano"],
  "policies": ["default", "clustered"],
  "topos": ["open720"],
  "seed": 5,
  "warm_rounds": 10,
  "engine_rounds": 20,
  "measure_rounds": 10,
  "engine": "seq"
}
EOF
LEGACY_OFFLINE=$("$WORK/tcsim" sweep -digest -spec "$WORK/legacy.json" 2>/dev/null)
LEGACY_REMOTE=$("$WORK/tcsim" submit -addr "$ADDR" -digest -spec "$WORK/legacy.json" 2>/dev/null)
if [ "$LEGACY_OFFLINE" != "$OFFLINE" ] || [ "$LEGACY_REMOTE" != "$OFFLINE" ]; then
    echo "server-smoke: LEGACY SPEC MISMATCH: flags=$OFFLINE sweep -spec=$LEGACY_OFFLINE submit -spec=$LEGACY_REMOTE" >&2
    exit 1
fi
echo "server-smoke: a legacy spec naming an engine gives the same digest offline and served"

# shellcheck disable=SC2086
"$WORK/tcsim" submit -addr "$ADDR" $GRID >"$WORK/payload.json" 2>/dev/null
PAYLOAD_DIGEST=$(sed -n 's/^{"tasks":.*,"digest":"\(sha256:[0-9a-f]*\)"}$/\1/p' "$WORK/payload.json")
if [ "$(wc -l <"$WORK/payload.json")" -ne 1 ] || [ "$PAYLOAD_DIGEST" != "$OFFLINE" ]; then
    echo "server-smoke: PAYLOAD MISMATCH: want one JSON line with digest $OFFLINE, got digest '$PAYLOAD_DIGEST' in:" >&2
    head -c 2000 "$WORK/payload.json" >&2
    exit 1
fi
echo "server-smoke: the printed payload is one JSON line carrying the offline digest"

fetch() {
    if command -v curl >/dev/null 2>&1; then
        curl -fsS "$1"
    else
        wget -qO- "$1"
    fi
}

METRICS=$(fetch "$ADDR/metrics")
for series in server_jobs_admitted_total server_queue_depth server_http_request_ms_bucket sim_ops_total; do
    if ! printf '%s\n' "$METRICS" | grep -q "^$series"; then
        echo "server-smoke: /metrics lacks $series" >&2
        printf '%s\n' "$METRICS" >&2
        exit 1
    fi
done
echo "server-smoke: /metrics carries server and sim series"

kill "$PID"
wait "$PID" 2>/dev/null || true
PID=""
echo "server-smoke: ok"
