#!/usr/bin/env bash
# Cluster-mode smoke test: a coordinator and two worker processes plus
# one hot standby run a 4-shard scenario over real TCP; one assigned
# worker is SIGKILLed mid-feed; the run must recover onto the standby,
# the merged -json stats and the -snapshot-out file must be
# byte-identical to the single-process oracle's at the same seed, and so
# must the progress lines both print (one per -interval of simulated
# time, at the same epoch barriers). The oracle runs with -capture, and
# the three workers with one shared -capture directory, as on one host:
# the standby recreates the killed worker's shard files and rewrites
# them, so the capture tree must equal the oracle's. No process it
# started outlives it.
# The workers run -parallel, so each advances its two shards on the
# engine's persistent transport goroutines in a real process.
#
# Usage: scripts/cluster_smoke.sh [workdir]
set -euo pipefail

cd "$(dirname "$0")/.."
work="${1:-$(mktemp -d)}"
mkdir -p "$work"

seed=5
shards=4
dur=30s
rate=200
interval=5s
addr="127.0.0.1:$((47540 + RANDOM % 1000))"
common=(-shards "$shards" -seed "$seed" -duration "$dur" -rate "$rate" -interval "$interval")

echo "== building potemkind"
go build -o "$work/potemkind" ./cmd/potemkind

echo "== single-process oracle"
"$work/potemkind" -parallel "${common[@]}" -json -snapshot-out "$work/oracle.snap" \
    -capture "$work/oracle.cap" >"$work/oracle.raw"

pids=()
cleanup() {
    # SIGKILL: a worker defers its first SIGTERM to the coordinator.
    for pid in "${pids[@]}"; do
        kill -KILL "$pid" 2>/dev/null || true
    done
    wait 2>/dev/null || true
}
trap cleanup EXIT

echo "== coordinator on $addr + 2 workers + 1 standby"
"$work/potemkind" -coordinator "$addr" -workers 2 "${common[@]}" -json \
    -snapshot-out "$work/cluster.snap" >"$work/cluster.raw" 2>"$work/coord.err" &
coord=$!
pids+=("$coord")

start_worker() {
    "$work/potemkind" -worker "$addr" -name "$1" -parallel "${common[@]}" \
        -capture "$work/cluster.cap" >"$work/$1.out" 2>&1 &
    pids+=("$!")
}
# Sequenced startup so the first two connections (the assigned workers)
# are w0 and w1, and w2 is the standby.
start_worker w0
victim=${pids[-1]}
sleep 0.5
start_worker w1
sleep 0.5
start_worker w2

echo "== waiting for the feed to start"
for _ in $(seq 1 120); do
    grep -q "starting feed" "$work/cluster.raw" && break
    if ! kill -0 "$coord" 2>/dev/null; then
        echo "FAIL: coordinator died before the feed started" >&2
        cat "$work/coord.err" >&2
        exit 1
    fi
    sleep 0.25
done
grep -q "starting feed" "$work/cluster.raw" || {
    echo "FAIL: feed never started" >&2
    cat "$work/coord.err" >&2
    exit 1
}

sleep 1
echo "== SIGKILL worker w0 (pid $victim) mid-run"
kill -KILL "$victim"

if ! wait "$coord"; then
    echo "FAIL: coordinator exited non-zero" >&2
    cat "$work/coord.err" >&2
    exit 1
fi
wait || true

echo "== asserting recovery happened"
if ! grep -q "crash-detected" "$work/coord.err" || ! grep -q "restore-done" "$work/coord.err"; then
    echo "FAIL: no recovery in coordinator log" >&2
    cat "$work/coord.err" >&2
    exit 1
fi

echo "== diffing merged stats against the oracle"
# Both outputs carry informational lines before the JSON body.
sed -n '/^{/,$p' "$work/oracle.raw" >"$work/oracle.json"
sed -n '/^{/,$p' "$work/cluster.raw" >"$work/cluster.json"
if ! diff -u "$work/oracle.json" "$work/cluster.json"; then
    echo "FAIL: cluster stats differ from single-process oracle" >&2
    exit 1
fi
[ -s "$work/oracle.json" ] || { echo "FAIL: empty oracle JSON" >&2; exit 1; }

echo "== diffing progress lines against the oracle"
for side in oracle cluster; do
    grep '^  t=' "$work/$side.raw" >"$work/$side.progress" || {
        echo "FAIL: the $side printed no progress lines" >&2
        exit 1
    }
done
if ! diff -u "$work/oracle.progress" "$work/cluster.progress"; then
    echo "FAIL: cluster progress lines differ from the single-process oracle" >&2
    exit 1
fi

echo "== diffing the final snapshot against the oracle"
[ -s "$work/oracle.snap" ] || { echo "FAIL: the oracle wrote no snapshot" >&2; exit 1; }
if ! diff -u "$work/oracle.snap" "$work/cluster.snap"; then
    echo "FAIL: cluster snapshot differs from the single-process oracle" >&2
    exit 1
fi

echo "== diffing the workers' capture tree against the oracle's"
[ -s "$work/oracle.cap/shard-0/in.pcap" ] || { echo "FAIL: the oracle captured nothing" >&2; exit 1; }
if ! diff -r "$work/oracle.cap" "$work/cluster.cap"; then
    echo "FAIL: the workers' capture files differ from the single-process oracle's" >&2
    exit 1
fi

# Anchored at the command's start, so that no shell naming the path
# matches.
if pgrep -f "^$work/potemkind( |$)" >&2; then
    echo "FAIL: a potemkind process outlived the run" >&2
    exit 1
fi

echo "PASS: recovered from SIGKILL; stats, snapshot, progress lines and capture files byte-identical to the oracle"
