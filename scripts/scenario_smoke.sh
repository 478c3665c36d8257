#!/usr/bin/env bash
# Scenario-engine smoke test: every shipped scenario family runs through
# potemkind three ways — sequential shard engine, -parallel, and a real
# coordinator + two worker processes over TCP — and the three
# effectiveness scorecards must be byte-identical, and so must the three
# -snapshot-out files. This is the end-to-end form of the acceptance
# criteria asserted unit-side in scenario_run_test.go,
# snapshot_modes_test.go and internal/cluster's scorecard test. No
# process it started outlives it.
#
# Usage: scripts/scenario_smoke.sh [workdir]
set -euo pipefail

cd "$(dirname "$0")/.."
work="${1:-$(mktemp -d)}"
mkdir -p "$work"

seed=9
space="10.5.0.0/22"
shards=2
common=(-space "$space" -shards "$shards" -seed "$seed")

echo "== building potemkind"
go build -o "$work/potemkind" ./cmd/potemkind

pids=()
cleanup() {
    # SIGKILL: a worker defers its first SIGTERM to the coordinator.
    for pid in "${pids[@]}"; do
        kill -KILL "$pid" 2>/dev/null || true
    done
    wait 2>/dev/null || true
}
trap cleanup EXIT

for family in multistage fingerprint p2p; do
    scen="scenarios/$family.json"
    [ -f "$scen" ] || { echo "FAIL: missing $scen" >&2; exit 1; }
    echo "== scenario $family: sequential"
    "$work/potemkind" "${common[@]}" -scenario "$scen" \
        -scorecard-out "$work/$family.seq.json" -snapshot-out "$work/$family.seq.snap" >"$work/$family.seq.out"

    echo "== scenario $family: parallel"
    "$work/potemkind" "${common[@]}" -parallel -scenario "$scen" \
        -scorecard-out "$work/$family.par.json" -snapshot-out "$work/$family.par.snap" >"$work/$family.par.out"

    echo "== scenario $family: cluster (coordinator + 2 workers)"
    addr="127.0.0.1:$((46540 + RANDOM % 1000))"
    "$work/potemkind" -coordinator "$addr" -workers 2 "${common[@]}" -scenario "$scen" \
        -scorecard-out "$work/$family.clu.json" -snapshot-out "$work/$family.clu.snap" \
        >"$work/$family.clu.out" 2>"$work/$family.clu.err" &
    coord=$!
    pids+=("$coord")
    sleep 0.5
    "$work/potemkind" -worker "$addr" -name w0 "${common[@]}" -scenario "$scen" \
        >"$work/$family.w0.out" 2>&1 &
    pids+=("$!")
    sleep 0.3
    "$work/potemkind" -worker "$addr" -name w1 "${common[@]}" -scenario "$scen" \
        >"$work/$family.w1.out" 2>&1 &
    pids+=("$!")
    if ! wait "$coord"; then
        echo "FAIL: $family cluster coordinator exited non-zero" >&2
        cat "$work/$family.clu.err" >&2
        exit 1
    fi
    wait # the workers, shut down by the coordinator

    for mode in par clu; do
        if ! diff -u "$work/$family.seq.json" "$work/$family.$mode.json"; then
            echo "FAIL: $family scorecard differs between sequential and $mode" >&2
            exit 1
        fi
        if ! diff -u "$work/$family.seq.snap" "$work/$family.$mode.snap"; then
            echo "FAIL: $family snapshot differs between sequential and $mode" >&2
            exit 1
        fi
    done
    [ -s "$work/$family.seq.snap" ] || { echo "FAIL: empty $family snapshot" >&2; exit 1; }
    [ -s "$work/$family.seq.json" ] || { echo "FAIL: empty $family scorecard" >&2; exit 1; }
    grep -q '"scenario": "'"$family"'"' "$work/$family.seq.json" || {
        echo "FAIL: $family scorecard does not name its scenario" >&2
        exit 1
    }
    echo "   $family: sequential = parallel = cluster, scorecard and snapshot"
done

echo "== rendering with inspect scorecard"
go run ./cmd/inspect scorecard "$work"/multistage.seq.json >/dev/null
go run ./cmd/inspect scorecard -merge -json "$work"/p2p.seq.json "$work"/p2p.seq.json >/dev/null

echo "PASS: all scenario families score and snapshot byte-identically across execution modes"
