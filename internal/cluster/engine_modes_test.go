package cluster

// Cross-mode tests of the shard engine, the wire path and the facade's
// files, on the harness in modes_test.go.

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"testing"
	"time"

	"potemkin"
	"potemkin/internal/core"
	"potemkin/internal/guest"
	"potemkin/internal/netsim"
	"potemkin/internal/telescope"
)

// shardWorkload is the engine's equivalence workload: multi-stage
// guests (DNS and second-stage fetches, so safe-resolver answers send
// traffic across shards through the barrier) on four servers, exploits
// spanning shards, and two seconds of background radiation at 200 pps,
// then three seconds for infections to scan and bindings to recycle.
func shardWorkload(t *testing.T, seed uint64) spec {
	sp := standard(t, seed)
	sp.opts.Servers = 4
	sp.recs = testRecords(t, seed, 2*time.Second, 200)
	sp.runFor = 3 * time.Second
	return sp
}

// TestShardEngineParallelMatchesSequential is the tentpole equivalence
// proof: with the same seed and configuration, running the epochs on
// goroutines produces byte-identical output to the single-threaded
// oracle — final stats, forensic event log, and span trace. CI runs it
// under -race, so it also proves the epoch isolation is sound.
func TestShardEngineParallelMatchesSequential(t *testing.T) {
	runs := runModes(t, shardWorkload(t, 7), "seq", "par")
	requireSame(t, runs[0], runs[1])

	// The workload must actually exercise the cross-shard machinery, or
	// the equivalence proof is vacuous.
	seq := runs[0].totals
	if seq.Gateway.OutInternal == 0 {
		t.Error("no internal VM-to-VM traffic — cross-shard path not exercised")
	}
	if seq.Guest.Stage2Fetches == 0 {
		t.Error("no second-stage fetches — DNS reinjection path not exercised")
	}
	if seq.Gateway.OutDNSProxied == 0 || seq.DNSQueries == 0 {
		t.Errorf("safe resolver idle: proxied=%d served=%d", seq.Gateway.OutDNSProxied, seq.DNSQueries)
	}
	if seq.Farm.Infections == 0 {
		t.Error("no infections — exploit injection failed")
	}
	if len(runs[0].art["events"]) == 0 || len(runs[0].art["trace"]) == 0 {
		t.Error("event log or trace empty")
	}
}

// TestShardEngineParallelDeterministic re-runs the parallel mode and
// demands identical bytes — goroutine scheduling must not leak into the
// output.
func TestShardEngineParallelDeterministic(t *testing.T) {
	runs := runModes(t, shardWorkload(t, 11), "par", "par")
	requireSame(t, runs[0], runs[1])
}

// burstGapTrace builds a time-sorted telescope trace with two dense
// bursts separated by a long quiet gap — the schedule that makes
// adaptive lookahead widen across the gap and snap back when the second
// burst (and its cross-shard reflections) arrives.
func burstGapTrace(t *testing.T, seed uint64) []telescope.Record {
	const burst, gap = 500 * time.Millisecond, 5 * time.Second
	recs := testRecords(t, seed, burst, 400)
	for _, r := range testRecords(t, seed+1, burst, 400) {
		r.At = r.At.Add(burst + gap)
		recs = append(recs, r)
	}
	return recs
}

// TestShardEngineAdaptiveMatchesFixed is the engine-level determinism
// proof for adaptive lookahead: over a bursty replay with a long quiet
// gap, the adaptive engine must produce byte-identical event logs and
// traces to the fixed-epoch engine — in both sequential-oracle and
// parallel execution — while paying measurably fewer epoch barriers.
func TestShardEngineAdaptiveMatchesFixed(t *testing.T) {
	const seed = 23
	profile := guest.MultiStageDNS("update.evil.example")
	// One exploit, so infections generate cross-shard reflections inside
	// the second burst.
	exploit := netsim.TCPSyn(netsim.MustParseAddr("198.51.100.9"), netsim.MustParseAddr("10.5.7.31"),
		40000, profile.ScanDstPort, 1)
	exploit.Flags |= netsim.FlagPSH
	exploit.Payload = profile.ExploitPayload(0)
	sp := shardWorkload(t, seed)
	sp.tune = func(ec *core.ShardEngineConfig) { ec.Gateway.ReflectionLimit = 64 }
	sp.recs = burstGapTrace(t, seed)
	sp.inject = []*netsim.Packet{exploit}
	sp.opts.EpochLog = io.Discard
	sp.progress = 0 // barriers, and so ticks, differ by grid

	sp.adaptive = 1
	fixed := runModes(t, sp, "seq")[0]
	fixed.mode = "seq at adaptive=1"
	if len(fixed.art["events"]) == 0 || len(fixed.art["trace"]) == 0 {
		t.Fatal("fixed run produced no output")
	}
	var adaptiveEpochs int
	for _, cfg := range []struct {
		mode     string
		adaptive int
	}{{"seq", 0}, {"par", 1}, {"par", 0}} {
		sp.adaptive = cfg.adaptive
		got := runModes(t, sp, cfg.mode)[0]
		got.mode += fmt.Sprintf(" at adaptive=%d", cfg.adaptive)
		requireSame(t, fixed, got, "epochs")
		if cfg.adaptive == 0 {
			adaptiveEpochs = len(got.samples)
		}
	}
	// The 5 s gap spans 5000 fixed 1 ms epochs; adaptive (default cap
	// 64) must collapse most of them.
	if adaptiveEpochs == 0 || adaptiveEpochs >= len(fixed.samples) {
		t.Errorf("adaptive paid %d epochs, fixed %d — widening never engaged", adaptiveEpochs, len(fixed.samples))
	}
	if fixed.totals.Gateway.OutInternal == 0 {
		t.Error("no internal reflections — cross-shard snap-back not exercised")
	}
}

// TestWireReplayDeterminism is the loopback determinism proof: a trace
// replayed over a real UDP socket, through the pcap codec, drives the
// honeyfarm to the same bytes as the same trace replayed in process,
// and a second wire run reproduces the first. It holds because the
// timestamped framing carries exact virtual nanoseconds, so arrival
// jitter never reaches the simulation, and a wire feed and an
// in-process replay enter the simulation through the same epoch feeder
// (core.ReplayOver).
func TestWireReplayDeterminism(t *testing.T) {
	const seed = 42
	sp := spec{opts: potemkin.Options{Seed: seed}, recs: testRecords(t, seed, 20*time.Second, 300)}
	runs := runModes(t, sp, "seq", "wire", "wire")
	requireSame(t, runs[0], runs[1])
	requireSame(t, runs[1], runs[2])
}

// TestSnapshotOfMatchesAcrossModes: SnapshotOf's JSON at the end of a
// run — and every other artifact — is the same bytes sequentially,
// under Parallel, and through an in-process cluster coordinator —
// clean, and with a worker lost mid-run and recovered onto a standby —
// at two and at four shards, with tracing on (stages_ms and open_spans
// filled) and off. The root test of the same name holds the facade's
// Replay to it sequentially and under Parallel.
func TestSnapshotOfMatchesAcrossModes(t *testing.T) {
	for _, traced := range []bool{false, true} {
		for _, shards := range []int{2, 4} {
			t.Run(fmt.Sprintf("trace=%v/shards=%d", traced, shards), func(t *testing.T) {
				sp := standard(t, 77)
				sp.opts.GatewayShards = shards
				sp.cut = 2 << 10
				if !traced {
					sp.opts.TraceOut = nil
				}
				runs := runModes(t, sp, "seq", "par", "cluster", "recovered")
				var s potemkin.Snapshot
				if err := json.Unmarshal(runs[0].art["snapshot"], &s); err != nil {
					t.Fatal(err)
				}
				if s.InfectedVMs == 0 || s.CloneMs.Count == 0 {
					t.Errorf("vacuous run: %s", runs[0].art["snapshot"])
				}
				if traced != (s.StagesMs != nil) || traced != (s.OpenSpans > 0) {
					t.Errorf("tracing %v, yet stages %v and %d open spans", traced, s.StagesMs, s.OpenSpans)
				}
				for _, r := range runs[1:] {
					requireSame(t, runs[0], r)
				}
			})
		}
	}
}

// TestCaptureMatchesAcrossModes: every shard domain writes its own
// capture and checkpoint files, so a multistage campaign, whose scan
// detector fires, leaves the same bytes in every shard-<i>/ pcap and
// every checkpoint sequentially, under Parallel and through an
// in-process cluster coordinator — clean, and with slot 0 lost mid-run
// and recovered onto a standby, which recreates its shards' files — at
// two and at four shards. The root test of the same name holds the
// facade's RunScenario to it sequentially and under Parallel.
func TestCaptureMatchesAcrossModes(t *testing.T) {
	sc, err := potemkin.LoadScenario("multistage")
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			// A /26 keeps the files small: the detector flags nearly every
			// infected VM, and each checkpoint is some 400 KiB.
			sp := spec{
				opts: potemkin.Options{Seed: 9, MonitoredSpace: "10.5.0.0/26", Servers: 4, GatewayShards: shards,
					Policy: potemkin.InternalReflect, Scenario: sc},
				files: true,
				// Cut late enough that the lost worker has written
				// checkpoints and flushed capture bytes, which the
				// standby's rebuild truncates and rewrites.
				cut: 32 << 10,
			}
			runs := runModes(t, sp, "seq", "par", "cluster", "recovered")
			ckpts := 0
			for name := range runs[0].art {
				if filepath.Ext(name) == ".ckpt" {
					ckpts++
				}
			}
			if ckpts == 0 {
				t.Error("the scan detector saved no checkpoint")
			}
			for i := 0; i < shards; i++ {
				for _, name := range []string{"in", "tovm", "out"} {
					if _, ok := runs[0].art[fmt.Sprintf("files/capture/shard-%d/%s.pcap", i, name)]; !ok {
						t.Errorf("no capture/shard-%d/%s.pcap", i, name)
					}
				}
			}
			for _, r := range runs[1:] {
				requireSame(t, runs[0], r)
			}
		})
	}
}
