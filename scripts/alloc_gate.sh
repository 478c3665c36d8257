#!/usr/bin/env bash
# alloc_gate.sh — fail if the parallel shard-replay path allocates more
# than the sequential oracle (beyond a 5% tolerance), or if sequential
# shard replay itself allocates past its recorded ceilings.
#
# Reads `go test -bench BenchmarkShardReplay... -benchmem` output on
# stdin. The parallel runner's whole point is that epoch exchange,
# cross-shard payloads, and sink appends reuse preallocated storage; a
# parallel allocs/op figure above sequential * 1.05 means a pooling
# regression slipped in.
#
# The sequential ceilings hold what lazy deltas, the recycled clone
# lifecycle and described pages bought: a CoW fault costs the bytes
# written, not a page copy, a heap object or a slab slot; a clone, its
# guest and its binding come off free lists; and a server's reference
# image is two words, not a frame per page; and a replayed record rides
# a pooled envelope instead of a closure and a fresh packet; and a guest's
# connections, a binding's peers and a server's histograms sit in storage
# sized to what they hold, not in Go maps and fixed arrays; and a dirty
# page's entry is 20 bytes with one touch inline, a touch a 10-byte
# record, and a spilled page keeps its inline record; and a working-set
# page is found through a byte of the space's window, so a burst sizes
# the page index only for the pages past it, and a burst with none makes
# no index. The bytes ceiling is 20% above the figure recorded when the
# entry went from 32 bytes to 20 (3.27 MB/op, 22,436 allocs/op: a page's
# second touch now takes an overflow buffer, which a guest's burst takes
# once a page). The allocs ceiling is 20% above the figure recorded when
# the window came in (3.75 MB/op, 22,253 allocs/op; 3.98 MB and 24,332
# when spilled pages kept their
# inline records; 5.24 MB and 29,982 when the connections, peers and
# histograms left the maps; 5.49 MB and 32,814 before that, when the
# replay feeder stopped allocating per record; 5.71 MB and 37,378
# before that, 8.98 MB and 39,958 before reference images and clones'
# dirty pages left the slab, 11.9 MB and 66,766 before clones were
# recycled, 186 MB while every fault copied 4 KiB). The benchmark
# replays two seconds on a cold farm, so most of what is left is each
# free list's first fill.
set -euo pipefail

SEQ_BYTES_CEILING=3918000
SEQ_ALLOCS_CEILING=26700

awk -v bytes_ceiling="$SEQ_BYTES_CEILING" -v allocs_ceiling="$SEQ_ALLOCS_CEILING" '
    { print }  # pass through so the CI log stays readable
    /^BenchmarkShardReplaySequential/ {
        for (i = 2; i < NF; i++) {
            if ($(i+1) == "allocs/op") seq = $i
            if ($(i+1) == "B/op") seqbytes = $i
        }
    }
    /^BenchmarkShardReplayParallel/ {
        for (i = 2; i < NF; i++) if ($(i+1) == "allocs/op") par = $i
    }
    END {
        if (seq == "" || par == "" || seqbytes == "") {
            print "alloc-gate: missing benchmark output (need both ShardReplaySequential and ShardReplayParallel with -benchmem)" > "/dev/stderr"
            exit 1
        }
        limit = seq * 1.05
        printf "alloc-gate: sequential %.0f allocs/op, parallel %.0f allocs/op (limit %.0f)\n", seq, par, limit
        printf "alloc-gate: sequential %.0f B/op (ceiling %.0f), %.0f allocs/op (ceiling %.0f)\n", seqbytes, bytes_ceiling, seq, allocs_ceiling
        fail = 0
        if (par + 0 > limit) {
            print "alloc-gate: FAIL — parallel allocates more than sequential * 1.05" > "/dev/stderr"
            fail = 1
        }
        if (seqbytes + 0 > bytes_ceiling + 0) {
            print "alloc-gate: FAIL — sequential shard replay allocates more bytes per op than its ceiling" > "/dev/stderr"
            fail = 1
        }
        if (seq + 0 > allocs_ceiling + 0) {
            print "alloc-gate: FAIL — sequential shard replay allocates more objects per op than its ceiling" > "/dev/stderr"
            fail = 1
        }
        if (fail) exit 1
        print "alloc-gate: OK"
    }
'
