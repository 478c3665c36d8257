#!/usr/bin/env bash
# Scenario-engine smoke test: every shipped scenario family runs through
# potemkind three ways — sequential shard engine, -parallel, and a real
# coordinator + two worker processes over TCP — and the three
# effectiveness scorecards must be byte-identical, and so must the three
# -snapshot-out files. multistage, whose scan detector fires, also runs
# with -capture and -checkpoints (the cluster's two workers share one
# directory of each, as on one host), and the three capture trees and
# the three checkpoint directories must be byte-identical too. This is
# the end-to-end form of the acceptance criteria asserted unit-side in
# scenario_run_test.go, snapshot_modes_test.go and internal/cluster's
# scorecard test. No process it started outlives it.
#
# Usage: scripts/scenario_smoke.sh [workdir]
set -euo pipefail

cd "$(dirname "$0")/.."
work="${1:-$(mktemp -d)}"
mkdir -p "$work"

seed=9
shards=2

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

# files prints the -capture and -checkpoints flags of family's mode
# leg: multistage only, whose detector fires.
files() {
    [ "$1" = multistage ] && echo "-capture $work/$1.$2.cap -checkpoints $work/$1.$2.ckpt"
    return 0
}

for family in multistage fingerprint p2p; do
    # multistage's detector flags nearly every infected VM, and each
    # checkpoint is some 400 KiB: a /24 keeps its files to ~90 MB a leg.
    space="10.5.0.0/22"
    [ "$family" = multistage ] && space="10.5.0.0/24"
    common=(-space "$space" -shards "$shards" -seed "$seed")
    scen="scenarios/$family.json"
    [ -f "$scen" ] || { echo "FAIL: missing $scen" >&2; exit 1; }
    echo "== scenario $family: sequential"
    # shellcheck disable=SC2046 # files prints whole flags
    "$work/potemkind" "${common[@]}" -scenario "$scen" $(files "$family" seq) \
        -scorecard-out "$work/$family.seq.json" -snapshot-out "$work/$family.seq.snap" >"$work/$family.seq.out"

    echo "== scenario $family: parallel"
    # shellcheck disable=SC2046
    "$work/potemkind" "${common[@]}" -parallel -scenario "$scen" $(files "$family" par) \
        -scorecard-out "$work/$family.par.json" -snapshot-out "$work/$family.par.snap" >"$work/$family.par.out"

    echo "== scenario $family: cluster (coordinator + 2 workers)"
    addr="127.0.0.1:$((46540 + RANDOM % 1000))"
    "$work/potemkind" -coordinator "$addr" -workers 2 "${common[@]}" -scenario "$scen" \
        -scorecard-out "$work/$family.clu.json" -snapshot-out "$work/$family.clu.snap" \
        >"$work/$family.clu.out" 2>"$work/$family.clu.err" &
    coord=$!
    pids+=("$coord")
    sleep 0.5
    # shellcheck disable=SC2046
    "$work/potemkind" -worker "$addr" -name w0 "${common[@]}" -scenario "$scen" $(files "$family" clu) \
        >"$work/$family.w0.out" 2>&1 &
    pids+=("$!")
    sleep 0.3
    # shellcheck disable=SC2046
    "$work/potemkind" -worker "$addr" -name w1 "${common[@]}" -scenario "$scen" $(files "$family" clu) \
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
    if [ -n "$(files "$family" seq)" ]; then
        [ -n "$(ls -A "$work/$family.seq.ckpt" 2>/dev/null)" ] || {
            echo "FAIL: $family saved no checkpoint" >&2
            exit 1
        }
        for mode in par clu; do
            for tree in cap ckpt; do
                if ! diff -r "$work/$family.seq.$tree" "$work/$family.$mode.$tree"; then
                    echo "FAIL: $family -$tree files differ between sequential and $mode" >&2
                    exit 1
                fi
            done
        done
        echo "   $family: sequential = parallel = cluster, capture and checkpoint files"
        # Equal, and some 270 MB together: a passing run keeps none.
        rm -rf "$work/$family".{seq,par,clu}.{cap,ckpt}
    fi
    echo "   $family: sequential = parallel = cluster, scorecard and snapshot"
done

echo "== rendering with inspect scorecard"
go run ./cmd/inspect scorecard "$work"/multistage.seq.json >/dev/null
go run ./cmd/inspect scorecard -merge -json "$work"/p2p.seq.json "$work"/p2p.seq.json >/dev/null

# Anchored at the command's start, so that no shell naming the path
# matches.
if pgrep -f "^$work/potemkind( |$)" >&2; then
    echo "FAIL: a potemkind process outlived its leg" >&2
    exit 1
fi

echo "PASS: all scenario families score and snapshot byte-identically across execution modes, and multistage's capture and checkpoint files match"
