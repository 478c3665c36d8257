package core

import (
	"bytes"
	"sort"
	"testing"
	"time"

	"potemkin/internal/dns"
	"potemkin/internal/farm"
	"potemkin/internal/fault"
	"potemkin/internal/gateway"
	"potemkin/internal/guest"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/telescope"
	"potemkin/internal/trace"
)

const oneShardTail = 2 * time.Second

// oneShardWorkload is the comparison's configuration and input: a
// multi-stage guest population under internal reflection (DNS lookups,
// second-stage fetches, a reflection cascade) fed background radiation
// with one real exploit spliced in.
//
// No record may fall on the same nanosecond as a timer: the two fire in
// kernel insertion order, and there the pipelines legitimately differ —
// the engine inserts a record at the start of its epoch, StreamReplayer
// as the previous record fires (DESIGN.md "One engine" states the
// rule). A generated trace shorter than one sweep starts its sweeps at
// t=0, so at the default 50 pps every sweep record sits on a 20 ms grid
// that retry timers (round intervals after a record) land on too; hence
// the 1/47 s sweep gap, and an exploit and chaos script off the round
// milliseconds.
func oneShardWorkload(t *testing.T, seed uint64) (farm.Config, gateway.Config, []telescope.Record) {
	t.Helper()
	gc := gateway.DefaultConfig()
	gc.Policy = gateway.PolicyInternalReflect
	gc.IdleTimeout = time.Second
	gc.ReflectionLimit = 128 // cap the reflection cascade: keep CI fast
	fc := farm.DefaultConfig()
	fc.Servers = 2
	fc.Profile = guest.MultiStageDNS("update.evil.example")

	gen := telescope.DefaultGenConfig()
	gen.Space = gc.Space
	gen.Duration = 2 * time.Second
	gen.Rate = 500
	gen.SweepRate = 47
	gen.Seed = seed
	recs, err := telescope.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	payload := fc.Profile.ExploitPayload(0)
	ex := telescope.Record{
		At:  sim.Time(100*time.Millisecond + 137*time.Microsecond),
		Src: netsim.MustParseAddr("198.51.100.77"), Dst: netsim.MustParseAddr("10.5.7.20"),
		Proto: netsim.ProtoTCP, SrcPort: 40000, DstPort: fc.Profile.ScanDstPort,
		Flags: netsim.FlagSYN | netsim.FlagPSH, PayLen: uint16(len(payload)), Payload: payload,
	}
	i := sort.Search(len(recs), func(i int) bool { return recs[i].At > ex.At })
	recs = append(recs[:i], append([]telescope.Record{ex}, recs[i:]...)...)
	return fc, gc, recs
}

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

// runHandWired is the reference: the pipeline a facade user had before
// there was an engine — one kernel, farm.New, gateway.New with directly
// attached sinks, the safe resolver answering in ExternalOut, and
// telescope.StreamReplayer's schedule-one/run-to-it replay.
func runHandWired(t *testing.T, seed uint64, faults *fault.Config) shardRun {
	t.Helper()
	fc, gc, recs := oneShardWorkload(t, seed)
	var ev, tr bytes.Buffer
	k := sim.NewKernel(seed)
	f, err := farm.New(k, fc)
	if err != nil {
		t.Fatal(err)
	}
	tracer := trace.New(trace.JSONL(&tr, nil), 0)
	f.SetTracer(tracer)
	gc.Tracer = tracer
	gc.EventSink = gateway.JSONLSink(&ev, nil)
	resolver := dns.NewResolver(gc.Space)
	var g *gateway.Gateway
	gc.ExternalOut = func(now sim.Time, p *netsim.Packet) {
		if p.Proto == netsim.ProtoUDP && p.Dst == gc.Resolver {
			if resp := resolver.ServePacket(p); resp != nil {
				k.After(time.Millisecond, func(then sim.Time) { g.HandleInbound(then, resp) })
			}
		}
	}
	g = gateway.New(k, gc, f)
	f.SetGateway(g)
	var inj *fault.Injector
	if faults != nil {
		inj = fault.New(k, f, *faults)
	}

	rp := &telescope.StreamReplayer{K: k, Src: &telescope.SliceSource{Recs: recs}, Base: k.Now(), Emit: g.HandleInbound}
	if err := rp.Run(); err != nil {
		t.Fatal(err)
	}
	k.RunFor(time.Millisecond)
	k.RunFor(oneShardTail)
	guests, _ := f.GuestCumulative()
	run := shardRun{
		gw: g.Stats(), fm: f.Stats(), guests: guests, injected: rp.Injected,
		now: k.Now(), liveVMs: f.LiveVMs(), memory: f.MemoryInUse(), dns: resolver.Queries,
	}
	if inj != nil {
		run.faults = len(inj.Log())
	}
	g.Close()
	tracer.FlushOpen(k.Now())
	run.events, run.trace = ev.Bytes(), tr.Bytes()
	return run
}

// runOneShard is the same workload on a one-shard, non-parallel engine.
func runOneShard(t *testing.T, seed uint64, faults *fault.Config) shardRun {
	t.Helper()
	fc, gc, recs := oneShardWorkload(t, seed)
	var ev, tr bytes.Buffer
	eng, err := NewShardEngine(ShardEngineConfig{
		Shards: 1, Seed: seed, Gateway: gc, Farm: fc, Fault: faults,
		EventLog: &ev, TraceOut: &tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	injected, err := eng.Replay(&telescope.SliceSource{Recs: recs}, nil, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// One domain writes its sinks through as it goes, like the attached
	// sinks of the reference: the output is there before Close.
	if ev.Len() == 0 || tr.Len() == 0 {
		t.Errorf("one-shard sinks still buffered after Replay returned: events %d bytes, trace %d bytes", ev.Len(), tr.Len())
	}
	eng.RunFor(oneShardTail)
	tot := eng.Totals()
	run := shardRun{
		gw: tot.Gateway, fm: tot.Farm, guests: tot.Guest, injected: injected,
		now: eng.Now(), liveVMs: tot.LiveVMs, memory: tot.Memory, dns: tot.DNSQueries,
		faults: len(eng.FaultLog()),
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	run.events, run.trace = ev.Bytes(), tr.Bytes()
	return run
}

// TestOneShardEngineMatchesHandWiredPipeline is the behaviour half of
// "one engine": a one-shard, non-parallel ShardEngine — what every
// default Honeyfarm now runs on — is byte-identical to the classic
// single-kernel pipeline it replaced, assembled here by hand as the
// reference: stats, forensic event log and span trace, on radiation
// traces at three seeds and under a chaos schedule of scripted server
// crashes and clone failures.
func TestOneShardEngineMatchesHandWiredPipeline(t *testing.T) {
	chaos := &fault.Config{
		Script: []fault.Action{
			{At: 240 * time.Millisecond, Kind: fault.KindCrash, Server: 1, Duration: 350 * time.Millisecond},
			{At: 613 * time.Millisecond, Kind: fault.KindCrash, Server: 0, Duration: 700 * time.Millisecond},
			{At: 911 * time.Millisecond, Kind: fault.KindCloneFail, Prob: 0.3, Duration: 500 * time.Millisecond},
			{At: 1400 * time.Millisecond, Kind: fault.KindCrash, Server: 1, Duration: 250 * time.Millisecond},
			{At: 1650 * time.Millisecond, Kind: fault.KindCrash, Server: 0, Duration: 300 * time.Millisecond},
		},
	}
	cases := []struct {
		name   string
		seed   uint64
		faults *fault.Config
	}{
		{"seed1", 1, nil}, {"seed2", 2, nil}, {"seed3", 3, nil}, {"chaos", 4, chaos},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := runHandWired(t, tc.seed, tc.faults)
			got := runOneShard(t, tc.seed, tc.faults)
			if got.gw != want.gw {
				t.Errorf("gateway stats differ:\nengine:     %+v\nhand-wired: %+v", got.gw, want.gw)
			}
			if got.fm != want.fm {
				t.Errorf("farm stats differ:\nengine:     %+v\nhand-wired: %+v", got.fm, want.fm)
			}
			if got.guests != want.guests {
				t.Errorf("guest totals differ:\nengine:     %+v\nhand-wired: %+v", got.guests, want.guests)
			}
			if got.injected != want.injected || got.now != want.now || got.liveVMs != want.liveVMs ||
				got.memory != want.memory || got.dns != want.dns || got.faults != want.faults {
				t.Errorf("totals differ: engine injected=%d now=%v vms=%d mem=%d dns=%d faults=%d, hand-wired injected=%d now=%v vms=%d mem=%d dns=%d faults=%d",
					got.injected, got.now, got.liveVMs, got.memory, got.dns, got.faults,
					want.injected, want.now, want.liveVMs, want.memory, want.dns, want.faults)
			}
			if !bytes.Equal(got.events, want.events) {
				t.Errorf("event logs differ (engine %d bytes, hand-wired %d bytes)", len(got.events), len(want.events))
			}
			if !bytes.Equal(got.trace, want.trace) {
				t.Errorf("traces differ (engine %d bytes, hand-wired %d bytes)", len(got.trace), len(want.trace))
			}

			// Vacuity: the run must reach the paths that could diverge.
			if want.fm.Infections == 0 || want.gw.OutReflected == 0 || want.dns == 0 {
				t.Errorf("vacuous workload: infections=%d reflected=%d dns=%d", want.fm.Infections, want.gw.OutReflected, want.dns)
			}
			if want.gw.BindingsRecycled == 0 || len(want.events) == 0 || len(want.trace) == 0 {
				t.Errorf("vacuous workload: recycled=%d events=%d trace=%d bytes", want.gw.BindingsRecycled, len(want.events), len(want.trace))
			}
			if tc.faults != nil && (want.faults == 0 || want.gw.BackendLost+want.fm.SpawnRetries == 0) {
				t.Errorf("chaos schedule did not bite: faults=%d backend_lost=%d farm_retries=%d", want.faults, want.gw.BackendLost, want.fm.SpawnRetries)
			}
		})
	}
}

// TestReplayScheduleAllocs is the allocation floor of the engine's
// replay feeder: on warm flows — bindings active, connections known —
// replaying more records over more epochs allocates nothing more. The
// envelope a record is scheduled in, its packet, payload and callback
// all come off the owning domain's free list. (What one Replay call
// allocates to set itself up is not per record, and cancels out.)
//
// The difference may be a handful of objects: under -race (how CI runs
// the allocation floors) the runtime's own bookkeeping costs a few a
// run, while anything the feeder allocates costs at least one per
// record or per epoch — thousands here.
func TestReplayScheduleAllocs(t *testing.T) {
	gc := gateway.DefaultConfig()
	gc.Policy = gateway.PolicyReflectSource
	gc.IdleTimeout = 0 // warm means warm: nothing recycles mid-measurement
	fc := farm.DefaultConfig()
	eng, err := NewShardEngine(ShardEngineConfig{Shards: 1, Seed: 1, Gateway: gc, Farm: fc})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// 32 flows to each of 16 addresses, a record every 100 µs: ten
	// records an epoch.
	const dests, flows, gap = 16, 32, 100 * time.Microsecond
	records := func(n int) []telescope.Record {
		recs := make([]telescope.Record, n)
		for i := range recs {
			recs[i] = telescope.Record{
				At:  sim.Time(i) * sim.Time(gap),
				Src: netsim.MustParseAddr("198.51.100.1") + netsim.Addr(i%flows), Dst: gc.Space.Nth(uint64(i % dests)),
				Proto: netsim.ProtoTCP, SrcPort: uint16(1024 + i%flows), DstPort: 445, Flags: netsim.FlagSYN,
			}
		}
		return recs
	}
	replay := func(recs []telescope.Record) {
		n, err := eng.Replay(&telescope.SliceSource{Recs: recs}, nil, time.Millisecond)
		if err != nil || n != len(recs) {
			t.Fatalf("replayed %d of %d records: %v", n, len(recs), err)
		}
	}
	small, large := records(1000), records(5000)
	replay(large) // bind, clone, establish every flow, fill the free lists
	eng.RunFor(2 * time.Second)
	replay(large)
	delivered := eng.GatewayStats().DeliveredToVM

	perSmall := testing.AllocsPerRun(5, func() { replay(small) })
	perLarge := testing.AllocsPerRun(5, func() { replay(large) })
	if got, want := eng.GatewayStats().DeliveredToVM-delivered, uint64(6*(len(small)+len(large))); got != want {
		t.Fatalf("measured replays delivered %d packets to VMs, want %d: the flows are not warm", got, want)
	}
	extra := len(large) - len(small)
	if more := perLarge - perSmall; more > 16 {
		t.Fatalf("replaying %d more warm records over %d more epochs allocates %.0f more objects (%.3f per record), want 0",
			extra, extra/10, more, more/float64(extra))
	}
}

// TestBarrierDeliveryAllocs is the same floor for a packet scheduled
// into a domain between epochs (InjectBarrier, as the cluster
// coordinator seeds exploits): on warm flows across two shards,
// injecting more SYNs allocates nothing more. The envelope the packet
// rides comes off the owning domain's free list, like a record's.
func TestBarrierDeliveryAllocs(t *testing.T) {
	gc := gateway.DefaultConfig()
	gc.Policy = gateway.PolicyReflectSource
	gc.IdleTimeout = 0 // warm means warm: nothing recycles mid-measurement
	fc := farm.DefaultConfig()
	eng, err := NewShardEngine(ShardEngineConfig{Shards: 2, Seed: 1, Gateway: gc, Farm: fc})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// 32 flows to each of 16 addresses, eight on each shard.
	const dests, flows, gap = 16, 32, 100 * time.Microsecond
	recs := make([]telescope.Record, 500)
	syns := make([]*netsim.Packet, len(recs))
	for i := range recs {
		recs[i] = telescope.Record{
			At:  sim.Time(i) * sim.Time(gap),
			Src: netsim.MustParseAddr("198.51.100.1") + netsim.Addr(i%flows), Dst: gc.Space.Nth(uint64(i % dests)),
			Proto: netsim.ProtoTCP, SrcPort: uint16(1024 + i%flows), DstPort: 445, Flags: netsim.FlagSYN,
		}
		syns[i] = recs[i].Packet()
	}
	if n, err := eng.Replay(&telescope.SliceSource{Recs: recs}, nil, time.Millisecond); err != nil || n != len(recs) {
		t.Fatalf("replayed %d of %d records: %v", n, len(recs), err)
	}
	eng.RunFor(2 * time.Second) // bind, clone, establish every flow
	inject := func(n int) {
		for _, p := range syns[:n] {
			eng.InjectBarrier(p)
		}
		eng.RunFor(time.Millisecond)
	}
	inject(len(syns)) // fill the free lists
	delivered := eng.GatewayStats().DeliveredToVM

	perSmall := testing.AllocsPerRun(5, func() { inject(100) })
	perLarge := testing.AllocsPerRun(5, func() { inject(500) })
	if got, want := eng.GatewayStats().DeliveredToVM-delivered, uint64(6*(100+500)); got != want {
		t.Fatalf("measured injections delivered %d packets to VMs, want %d: the flows are not warm", got, want)
	}
	if more := perLarge - perSmall; more > 16 {
		t.Fatalf("injecting 400 more warm SYNs at the barrier allocates %.0f more objects (%.3f per packet), want 0",
			more, more/400)
	}
}
