#!/usr/bin/env bash
# Live-telemetry smoke test: run potemkind with -debug-addr and an
# epoch timeline, scrape /metrics mid-run over real HTTP, and validate
# the exposition is Prometheus-text parseable with the key series
# present. Then prove telemetry does not perturb the simulation: two
# same-seed runs, one with the full telemetry stack and one without,
# must emit byte-identical final JSON stats. Finally the epoch
# timeline must feed inspect epochs a barrier-wait profile.
#
# Usage: scripts/metrics_smoke.sh [workdir]
set -euo pipefail

cd "$(dirname "$0")/.."
work="${1:-$(mktemp -d)}"
mkdir -p "$work"

seed=5
shards=4
dur=60s
rate=300
port=$((48640 + RANDOM % 1000))
addr="127.0.0.1:$port"
common=(-parallel -shards "$shards" -seed "$seed" -duration "$dur" -rate "$rate")

echo "== building potemkind and inspect"
go build -o "$work/potemkind" ./cmd/potemkind
go build -o "$work/inspect" ./cmd/inspect

pids=()
cleanup() {
    for pid in "${pids[@]}"; do
        kill "$pid" 2>/dev/null || true
    done
}
trap cleanup EXIT

echo "== telemetry run on $addr"
"$work/potemkind" "${common[@]}" -debug-addr "$addr" \
    -epoch-log "$work/epochs.jsonl" -json >"$work/telemetry.raw" 2>&1 &
run=$!
pids+=("$run")

echo "== scraping /metrics mid-run"
# The endpoint comes up before the replay starts, and the farm publishes
# its counters every second of simulated time, so the first scrapes may
# still read zero: keep the latest one and poll until traffic shows (the
# assertion below fails if the run ends first).
inbound_of() { awk '$1 == "gateway_inbound_packets_total" { print $2 }'; }
scrape=""
for _ in $(seq 1 200); do
    if s=$(curl -sf "http://$addr/metrics" 2>/dev/null) && [ -n "$s" ]; then
        scrape=$s
        if [ "$(printf '%s\n' "$s" | inbound_of)" -gt 0 ] 2>/dev/null; then
            break
        fi
    fi
    if ! kill -0 "$run" 2>/dev/null; then
        [ -n "$scrape" ] && break
        echo "FAIL: potemkind exited before /metrics came up" >&2
        cat "$work/telemetry.raw" >&2
        exit 1
    fi
    sleep 0.05
done
[ -n "$scrape" ] || { echo "FAIL: /metrics never served" >&2; exit 1; }
printf '%s\n' "$scrape" >"$work/scrape.prom"

echo "== validating Prometheus text format"
# Every line is either a comment or exactly "series_name value" with a
# numeric value; metric names are [a-zA-Z_:][a-zA-Z0-9_:]* plus an
# optional {quantile="..."} label set.
awk '
/^#/ { next }
/^$/ { next }
{
    if (NF != 2) { print "malformed line (" NF " fields): " $0; bad = 1; next }
    if ($1 !~ /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{quantile="[0-9.]+"\})?$/) {
        print "bad series name: " $0; bad = 1
    }
    if ($2 !~ /^-?[0-9.]+([eE][-+]?[0-9]+)?$/ && $2 != "+Inf" && $2 != "NaN") {
        print "bad value: " $0; bad = 1
    }
    series++
}
END {
    if (series == 0) { print "no series in exposition"; bad = 1 }
    exit bad
}' "$work/scrape.prom" || { echo "FAIL: exposition not parseable" >&2; exit 1; }

echo "== asserting key series"
for want in \
    "# TYPE gateway_inbound_packets_total counter" \
    "# TYPE farm_live_vms gauge" \
    "# TYPE vmm_clones_total counter" \
    "# TYPE gateway_pending_dropped_total counter" \
    "# TYPE epoch_barrier_wait_ms summary" \
    "epochs_total"; do
    if ! grep -qF "$want" "$work/scrape.prom"; then
        echo "FAIL: /metrics missing '$want'" >&2
        cat "$work/scrape.prom" >&2
        exit 1
    fi
done
# Mid-run, the farm has seen traffic: the inbound counter is positive.
inbound=$(inbound_of <"$work/scrape.prom")
[ "${inbound:-0}" -gt 0 ] 2>/dev/null || {
    echo "FAIL: gateway_inbound_packets_total = '$inbound' mid-run" >&2
    exit 1
}

if ! wait "$run"; then
    echo "FAIL: telemetry run exited non-zero" >&2
    cat "$work/telemetry.raw" >&2
    exit 1
fi

echo "== same-seed run without telemetry"
"$work/potemkind" "${common[@]}" -json >"$work/plain.raw" 2>&1 || {
    echo "FAIL: plain run exited non-zero" >&2
    cat "$work/plain.raw" >&2
    exit 1
}

echo "== diffing final stats: telemetry on vs off"
sed -n '/^{/,$p' "$work/telemetry.raw" >"$work/telemetry.json"
sed -n '/^{/,$p' "$work/plain.raw" >"$work/plain.json"
[ -s "$work/plain.json" ] || { echo "FAIL: empty stats JSON" >&2; exit 1; }
if ! diff -u "$work/plain.json" "$work/telemetry.json"; then
    echo "FAIL: telemetry perturbed the simulation" >&2
    exit 1
fi

echo "== inspect epochs over the run's timeline"
[ -s "$work/epochs.jsonl" ] || { echo "FAIL: empty epoch timeline" >&2; exit 1; }
"$work/inspect" epochs -top 3 "$work/epochs.jsonl" >"$work/epochs.out"
for want in "barrier wait" "p99=" "slowest 3 epochs"; do
    if ! grep -qF "$want" "$work/epochs.out"; then
        echo "FAIL: inspect epochs output missing '$want'" >&2
        cat "$work/epochs.out" >&2
        exit 1
    fi
done

echo "PASS: /metrics parseable mid-run; telemetry-on stats byte-identical; epoch profile rendered"
