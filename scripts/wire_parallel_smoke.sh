#!/usr/bin/env bash
# Live-parallel-ingest smoke test: run potemkind with -parallel AND
# -listen (the combination that used to be rejected), flood it with real
# GRE-over-UDP traffic from floodgen, capture the injected feed with
# -wire-pcap, then replay the capture on an identically-configured
# parallel honeyfarm. The final JSON stats of the live run and its
# replay must be byte-identical — a live parallel run is exactly
# re-simulable from its capture artifact. The live run's epoch timeline
# must also show the ingress-frame accounting in inspect epochs.
#
# Usage: scripts/wire_parallel_smoke.sh [workdir]
set -euo pipefail

cd "$(dirname "$0")/.."
work="${1:-$(mktemp -d)}"
mkdir -p "$work"

seed=7
shards=4
servers=4
port=$((49640 + RANDOM % 1000))
addr="127.0.0.1:$port"
common=(-parallel -shards "$shards" -servers "$servers" -seed "$seed")

echo "== building potemkind, floodgen, and inspect"
go build -o "$work/potemkind" ./cmd/potemkind
go build -o "$work/floodgen" ./cmd/floodgen
go build -o "$work/inspect" ./cmd/inspect

pids=()
cleanup() {
    for pid in "${pids[@]}"; do
        kill "$pid" 2>/dev/null || true
    done
}
trap cleanup EXIT

echo "== live -parallel -listen run on $addr"
"$work/potemkind" "${common[@]}" -listen "$addr" -listen-for 8s \
    -wire-pcap "$work/live.pcap" -epoch-log "$work/epochs.jsonl" \
    -json >"$work/live.raw" 2>&1 &
run=$!
pids+=("$run")

# Wait until the listener is bound before flooding (UDP has no
# handshake; frames sent earlier would silently miss the capture).
for _ in $(seq 1 100); do
    grep -q "listening for" "$work/live.raw" 2>/dev/null && break
    if ! kill -0 "$run" 2>/dev/null; then
        echo "FAIL: potemkind exited before listening" >&2
        cat "$work/live.raw" >&2
        exit 1
    fi
    sleep 0.1
done
grep -q "listening for" "$work/live.raw" || {
    echo "FAIL: listener never came up" >&2
    cat "$work/live.raw" >&2
    exit 1
}

echo "== flooding $addr for 3s"
"$work/floodgen" -to "$addr" -duration 3s -rate 500 -report 0 >"$work/flood.out" 2>&1 || {
    echo "FAIL: floodgen exited non-zero" >&2
    cat "$work/flood.out" >&2
    exit 1
}

if ! wait "$run"; then
    echo "FAIL: live run exited non-zero" >&2
    cat "$work/live.raw" >&2
    exit 1
fi

echo "== replaying the capture on an identical parallel honeyfarm"
[ -s "$work/live.pcap" ] || { echo "FAIL: empty capture pcap" >&2; exit 1; }
"$work/potemkind" "${common[@]}" -pcap "$work/live.pcap" -json >"$work/replay.raw" 2>&1 || {
    echo "FAIL: replay run exited non-zero" >&2
    cat "$work/replay.raw" >&2
    exit 1
}

echo "== diffing final stats: live vs replay"
sed -n '/^{/,$p' "$work/live.raw" >"$work/live.json"
sed -n '/^{/,$p' "$work/replay.raw" >"$work/replay.json"
[ -s "$work/live.json" ] || { echo "FAIL: empty live stats JSON" >&2; exit 1; }
if ! diff -u "$work/live.json" "$work/replay.json"; then
    echo "FAIL: live parallel run not reproduced by its capture" >&2
    exit 1
fi

# The live run must not have been vacuous: the flood reached the farm.
inbound=$(awk -F'[:,]' '/"InboundPackets"/ { gsub(/[^0-9]/, "", $2); print $2 }' "$work/live.json")
[ "${inbound:-0}" -gt 0 ] 2>/dev/null || {
    echo "FAIL: live run saw no inbound packets (got '$inbound')" >&2
    cat "$work/live.json" >&2
    exit 1
}

echo "== inspect epochs shows ingress accounting"
[ -s "$work/epochs.jsonl" ] || { echo "FAIL: empty epoch timeline" >&2; exit 1; }
"$work/inspect" epochs -top 3 "$work/epochs.jsonl" >"$work/epochs.out"
grep -q "ingress:" "$work/epochs.out" || {
    echo "FAIL: inspect epochs missing ingress line" >&2
    cat "$work/epochs.out" >&2
    exit 1
}
ingress=$(awk '/^ingress:/ { print $2 }' "$work/epochs.out")
[ "${ingress:-0}" -gt 0 ] 2>/dev/null || {
    echo "FAIL: epoch timeline recorded no ingress frames (got '$ingress')" >&2
    cat "$work/epochs.out" >&2
    exit 1
}

echo "PASS: live -parallel -listen run byte-identical to its capture replay; $ingress ingress frames profiled"
