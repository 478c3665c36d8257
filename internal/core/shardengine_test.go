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
	"potemkin/internal/trace"
)

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
