package core

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"potemkin/internal/farm"
	"potemkin/internal/gateway"
	"potemkin/internal/guest"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/telescope"
	"potemkin/internal/trace"
)

// shardRun is everything observable a shard-engine run produces: the
// summed stats, the injected count, and the exact event-log and trace
// bytes.
type shardRun struct {
	gw       gateway.Stats
	fm       farm.Stats
	guests   guest.Stats
	injected int
	now      sim.Time
	liveVMs  int
	memory   uint64
	dns      uint64
	faults   int // applied fault events (runs with a fault.Config)
	events   []byte
	trace    []byte
}

// runShardWorkload drives the standard equivalence workload: a
// multi-stage guest population (DNS + second-stage fetches, so safe-
// resolver answers send traffic across shards through the barrier), a
// handful of exploits spanning shards, and a generated telescope trace.
func runShardWorkload(t *testing.T, parallel bool, seed uint64) shardRun {
	t.Helper()
	var ev, tr bytes.Buffer
	gc := gateway.DefaultConfig()
	gc.IdleTimeout = 2 * time.Second
	gc.ReflectionLimit = 128 // cap the reflection cascade: keep CI fast
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

	payload := fc.Profile.ExploitPayload(0)
	if payload == nil {
		t.Fatal("multi-stage profile has no exploit payload")
	}
	for i := 0; i < 4; i++ {
		src := netsim.MustParseAddr(fmt.Sprintf("198.51.100.%d", 10+i))
		dst := netsim.MustParseAddr(fmt.Sprintf("10.5.7.%d", 20+i))
		pkt := netsim.TCPSyn(src, dst, 40000, fc.Profile.ScanDstPort, 1)
		pkt.Flags |= netsim.FlagPSH
		pkt.Payload = payload
		eng.Inject(pkt)
	}

	gcfg := telescope.DefaultGenConfig()
	gcfg.Space = gc.Space
	gcfg.Duration = 2 * time.Second
	gcfg.Rate = 200
	gcfg.Seed = seed
	recs, err := telescope.Generate(gcfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	injected, err := eng.Replay(&telescope.SliceSource{Recs: recs}, nil, time.Millisecond)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	eng.RunFor(3 * time.Second) // let infections scan and bindings recycle
	tot := eng.Totals()
	run := shardRun{
		gw:       tot.Gateway,
		fm:       tot.Farm,
		guests:   tot.Guest,
		injected: injected,
		liveVMs:  tot.LiveVMs,
		memory:   tot.Memory,
		dns:      tot.DNSQueries,
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	run.events = ev.Bytes()
	run.trace = tr.Bytes()
	return run
}

// TestShardEngineParallelMatchesSequential is the tentpole equivalence
// proof: with the same seed and configuration, running the epochs on
// goroutines produces byte-identical output to the single-threaded
// oracle — final stats, forensic event log, and span trace. CI runs it
// under -race, so it also proves the epoch isolation is sound.
func TestShardEngineParallelMatchesSequential(t *testing.T) {
	seq := runShardWorkload(t, false, 7)
	par := runShardWorkload(t, true, 7)

	if !reflect.DeepEqual(seq.gw, par.gw) {
		t.Errorf("gateway stats differ:\nseq: %+v\npar: %+v", seq.gw, par.gw)
	}
	if !reflect.DeepEqual(seq.fm, par.fm) {
		t.Errorf("farm stats differ:\nseq: %+v\npar: %+v", seq.fm, par.fm)
	}
	if !reflect.DeepEqual(seq.guests, par.guests) {
		t.Errorf("guest totals differ:\nseq: %+v\npar: %+v", seq.guests, par.guests)
	}
	if seq.injected != par.injected {
		t.Errorf("injected: seq %d, par %d", seq.injected, par.injected)
	}
	if seq.liveVMs != par.liveVMs || seq.memory != par.memory || seq.dns != par.dns {
		t.Errorf("gauges differ: seq vms=%d mem=%d dns=%d, par vms=%d mem=%d dns=%d",
			seq.liveVMs, seq.memory, seq.dns, par.liveVMs, par.memory, par.dns)
	}
	if !bytes.Equal(seq.events, par.events) {
		t.Errorf("event logs differ (seq %d bytes, par %d bytes)", len(seq.events), len(par.events))
	}
	if !bytes.Equal(seq.trace, par.trace) {
		t.Errorf("traces differ (seq %d bytes, par %d bytes)", len(seq.trace), len(par.trace))
	}

	// The workload must actually exercise the cross-shard machinery, or
	// the equivalence proof is vacuous.
	if seq.gw.OutInternal == 0 {
		t.Error("no internal VM-to-VM traffic — cross-shard path not exercised")
	}
	if seq.guests.Stage2Fetches == 0 {
		t.Error("no second-stage fetches — DNS reinjection path not exercised")
	}
	if seq.gw.OutDNSProxied == 0 || seq.dns == 0 {
		t.Errorf("safe resolver idle: proxied=%d served=%d", seq.gw.OutDNSProxied, seq.dns)
	}
	if seq.fm.Infections == 0 {
		t.Error("no infections — exploit injection failed")
	}
	if len(seq.events) == 0 || len(seq.trace) == 0 {
		t.Error("event log or trace empty")
	}
}

// TestShardEngineParallelDeterministic re-runs the parallel mode and
// demands identical bytes — goroutine scheduling must not leak into the
// output.
func TestShardEngineParallelDeterministic(t *testing.T) {
	a := runShardWorkload(t, true, 11)
	b := runShardWorkload(t, true, 11)
	if !bytes.Equal(a.events, b.events) || !bytes.Equal(a.trace, b.trace) {
		t.Fatal("parallel runs with the same seed produced different bytes")
	}
	if !reflect.DeepEqual(a.gw, b.gw) {
		t.Fatalf("parallel runs with the same seed produced different stats:\n%+v\n%+v", a.gw, b.gw)
	}
}

// TestShardEngineServerSplit checks the server-share arithmetic and the
// one-server-per-shard floor.
func TestShardEngineServerSplit(t *testing.T) {
	gc := gateway.DefaultConfig()
	fc := farm.DefaultConfig()
	fc.Servers = 6
	eng, err := NewShardEngine(ShardEngineConfig{Shards: 4, Seed: 1, Gateway: gc, Farm: fc})
	if err != nil {
		t.Fatalf("NewShardEngine: %v", err)
	}
	defer eng.Close()
	var got []int
	for _, d := range eng.Domains() {
		got = append(got, len(d.F.Hosts()))
	}
	want := []int{2, 2, 1, 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("server split = %v, want %v", got, want)
	}

	fc.Servers = 3
	if _, err := NewShardEngine(ShardEngineConfig{Shards: 4, Seed: 1, Gateway: gc, Farm: fc}); err == nil {
		t.Fatal("expected error: fewer servers than shards")
	}
}

var update = flag.Bool("update", false, "rewrite the testdata goldens from this run")

// TestShardEngineCrossShardGolden pins a four-shard run with cross-shard
// traffic to fixed bytes. Every other multi-shard test compares one mode
// with another, so a change that moves every mode at once — how a packet
// crosses shards, how it enters a domain — would pass them all. Here four
// exploits enter through the barrier, and the infections' DNS lookups,
// second-stage fetches and reflection cascade cross shards; the golden
// holds the event log's and trace's FNV-1a, the merged Stats and the
// messages the exchange moved.
func TestShardEngineCrossShardGolden(t *testing.T) {
	var ev, tr bytes.Buffer
	gc := gateway.DefaultConfig()
	gc.IdleTimeout = 2 * time.Second
	gc.ReflectionLimit = 64
	fc := farm.DefaultConfig()
	fc.Servers = 4
	fc.Profile = guest.MultiStageDNS("update.evil.example")
	eng, err := NewShardEngine(ShardEngineConfig{Shards: 4, Seed: 3, Gateway: gc, Farm: fc, EventLog: &ev, TraceOut: &tr})
	if err != nil {
		t.Fatal(err)
	}
	crossed := 0
	eng.runner.SetEpochObserver(func(s sim.EpochStats) { crossed += s.ExchangeMsgs })
	for i := 0; i < 4; i++ {
		src := netsim.MustParseAddr(fmt.Sprintf("198.51.100.%d", 10+i))
		dst := netsim.MustParseAddr(fmt.Sprintf("10.5.7.%d", 20+i))
		pkt := netsim.TCPSyn(src, dst, 40000, fc.Profile.ScanDstPort, 1)
		pkt.Flags |= netsim.FlagPSH
		pkt.Payload = fc.Profile.ExploitPayload(0)
		eng.InjectBarrier(pkt)
	}
	eng.RunFor(3 * time.Second)
	tot := eng.Totals()
	gw, fm, guests := tot.Gateway, tot.Farm, tot.Guest
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if crossed == 0 {
		t.Fatal("no message crossed shards: the golden pins nothing of the exchange")
	}
	// Each domain numbers its traces and spans from shard<<48 | 1, so in
	// the merged trace every span ID occurs once and every trace has
	// exactly one root.
	recs, err := trace.ReadAll(bytes.NewReader(tr.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	spans, traces, roots := make(map[uint64]bool), make(map[uint64]bool), 0
	for _, r := range recs {
		if spans[r.Span] {
			t.Errorf("span ID %#x repeats in the merged trace", r.Span)
		}
		spans[r.Span], traces[r.Trace] = true, true
		if r.Parent == 0 {
			roots++
		}
	}
	if len(traces) != roots {
		t.Errorf("%d distinct trace IDs for %d root spans", len(traces), roots)
	}

	sum := func(b []byte) uint64 {
		h := fnv.New64a()
		h.Write(b)
		return h.Sum64()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "events %d bytes fnv1a %#016x\n", ev.Len(), sum(ev.Bytes()))
	fmt.Fprintf(&b, "trace %d bytes fnv1a %#016x\n", tr.Len(), sum(tr.Bytes()))
	fmt.Fprintf(&b, "exchange messages %d\n", crossed)
	fmt.Fprintf(&b, "gateway %+v\nfarm %+v\nguest %+v\n", gw, fm, guests)

	const golden = "testdata/shard4_seed3_cross.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("cross-shard run differs from %s:\n--- got\n%s--- want\n%s", golden, got, want)
	}
}
