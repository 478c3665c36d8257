package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"potemkin/internal/farm"
	"potemkin/internal/gateway"
	"potemkin/internal/guest"
	"potemkin/internal/netsim"
	"potemkin/internal/telescope"
)

// burstGapTrace builds a time-sorted telescope trace with two dense
// bursts separated by a long quiet gap — the schedule that makes
// adaptive lookahead widen across the gap and snap back when the second
// burst (and its cross-shard reflections) arrives.
func burstGapTrace(t *testing.T, seed uint64) []telescope.Record {
	t.Helper()
	gcfg := telescope.DefaultGenConfig()
	gcfg.Duration = 500 * time.Millisecond
	gcfg.Rate = 400
	gcfg.Seed = seed
	first, err := telescope.Generate(gcfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	gcfg.Seed = seed + 1
	second, err := telescope.Generate(gcfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	recs := make([]telescope.Record, 0, len(first)+len(second))
	recs = append(recs, first...)
	const gap = 5 * time.Second
	for _, r := range second {
		r.At = r.At.Add(500*time.Millisecond + gap)
		recs = append(recs, r)
	}
	return recs
}

// adaptiveRun is one engine run of the burst/gap/burst workload.
type adaptiveRun struct {
	gw     gateway.Stats
	fm     farm.Stats
	events []byte
	trace  []byte
	epochs uint64
}

func runBurstGapWorkload(t *testing.T, parallel bool, adaptive int, seed uint64) adaptiveRun {
	t.Helper()
	var ev, tr bytes.Buffer
	gc := gateway.DefaultConfig()
	gc.IdleTimeout = 2 * time.Second
	gc.ReflectionLimit = 64
	fc := farm.DefaultConfig()
	fc.Servers = 4
	fc.Profile = guest.MultiStageDNS("update.evil.example")
	eng, err := NewShardEngine(ShardEngineConfig{
		Shards:   4,
		Parallel: parallel,
		Seed:     seed,
		Gateway:  gc,
		Farm:     fc,
		EventLog: &ev,
		TraceOut: &tr,
	})
	if err != nil {
		t.Fatalf("NewShardEngine: %v", err)
	}
	if adaptive != 0 { // 0 keeps the runner's default cap
		eng.SetAdaptive(adaptive)
	}

	// Seed one exploit so infections generate cross-shard reflections
	// inside the second burst.
	pkt := netsim.TCPSyn(netsim.MustParseAddr("198.51.100.9"), netsim.MustParseAddr("10.5.7.31"),
		40000, fc.Profile.ScanDstPort, 1)
	pkt.Flags |= netsim.FlagPSH
	pkt.Payload = fc.Profile.ExploitPayload(0)
	eng.Inject(pkt)

	recs := burstGapTrace(t, seed)
	if _, err := eng.Replay(&telescope.SliceSource{Recs: recs}, nil, time.Millisecond); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	eng.RunFor(3 * time.Second)
	run := adaptiveRun{gw: eng.GatewayStats(), fm: eng.FarmStats()}
	if ep, ok := eng.Barrier().(interface{ Epochs() uint64 }); ok {
		run.epochs = ep.Epochs()
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	run.events = ev.Bytes()
	run.trace = tr.Bytes()
	return run
}

// TestShardEngineAdaptiveMatchesFixed is the engine-level determinism
// proof for adaptive lookahead: over a bursty replay with a long quiet
// gap, the adaptive engine must produce byte-identical event logs and
// traces to the fixed-epoch engine — in both sequential-oracle and
// parallel execution — while paying measurably fewer epoch barriers.
func TestShardEngineAdaptiveMatchesFixed(t *testing.T) {
	const seed = 23
	fixed := runBurstGapWorkload(t, false, 1, seed)
	if len(fixed.events) == 0 || len(fixed.trace) == 0 {
		t.Fatal("fixed run produced no output")
	}
	var adaptiveEpochs uint64
	for _, cfg := range []struct {
		parallel bool
		adaptive int
	}{{false, 0}, {true, 1}, {true, 0}} {
		got := runBurstGapWorkload(t, cfg.parallel, cfg.adaptive, seed)
		label := fmt.Sprintf("parallel=%v adaptive=%d", cfg.parallel, cfg.adaptive)
		if !bytes.Equal(fixed.events, got.events) {
			t.Errorf("%s: event log diverges from fixed oracle (%d vs %d bytes)",
				label, len(fixed.events), len(got.events))
		}
		if !bytes.Equal(fixed.trace, got.trace) {
			t.Errorf("%s: trace diverges from fixed oracle (%d vs %d bytes)",
				label, len(fixed.trace), len(got.trace))
		}
		if !reflect.DeepEqual(fixed.gw, got.gw) {
			t.Errorf("%s: gateway stats diverge:\nfixed: %+v\ngot:   %+v", label, fixed.gw, got.gw)
		}
		if !reflect.DeepEqual(fixed.fm, got.fm) {
			t.Errorf("%s: farm stats diverge:\nfixed: %+v\ngot:   %+v", label, fixed.fm, got.fm)
		}
		if cfg.adaptive == 0 {
			adaptiveEpochs = got.epochs
		}
	}
	// The 5 s gap spans 5000 fixed 1 ms epochs; adaptive (default cap
	// 64) must collapse most of them.
	if adaptiveEpochs == 0 || adaptiveEpochs >= fixed.epochs {
		t.Errorf("adaptive paid %d epochs, fixed %d — widening never engaged",
			adaptiveEpochs, fixed.epochs)
	}
	if fixed.gw.OutInternal == 0 {
		t.Error("no internal reflections — cross-shard snap-back not exercised")
	}
}
