package gateway

import (
	"testing"
	"time"

	"potemkin/internal/netsim"
	"potemkin/internal/sim"
)

// shardSet is n gateways on one kernel partitioned through
// SetShardHooks the way core.NewShardDomain partitions its domains —
// shard i owns the addresses whose index in the space is ≡ i (mod n) —
// minus the epoch barrier: cross-shard internal traffic re-injects at
// the owner synchronously. It exists to test the hooks in isolation.
type shardSet []*Gateway

func newShardedRig(t *testing.T, n int, mutate func(*Config)) (shardSet, *fakeBackend, *sim.Kernel) {
	t.Helper()
	k := sim.NewKernel(5)
	fb := &fakeBackend{k: k, delay: 100 * time.Millisecond}
	cfg := DefaultConfig()
	cfg.IdleTimeout = 0
	if mutate != nil {
		mutate(&cfg)
	}
	s := make(shardSet, n)
	for i := range s {
		i := i
		s[i] = New(k, cfg, fb)
		s[i].SetShardHooks(func(a netsim.Addr) bool { return s.owner(a) == s[i] }, s.HandleInbound)
	}
	return s, fb, k
}

// owner returns the gateway owning addr; addresses outside the space
// route to shard 0, like core.OwnerOf.
func (s shardSet) owner(addr netsim.Addr) *Gateway {
	space := s[0].Cfg.Space
	if !space.Contains(addr) {
		return s[0]
	}
	return s[space.Index(addr)%uint64(len(s))]
}

func (s shardSet) HandleInbound(now sim.Time, pkt *netsim.Packet) {
	s.owner(pkt.Dst).HandleInbound(now, pkt)
}

func (s shardSet) HandleOutbound(now sim.Time, pkt *netsim.Packet) Disposition {
	return s.owner(pkt.Src).HandleOutbound(now, pkt)
}

func (s shardSet) Binding(addr netsim.Addr) *Binding { return s.owner(addr).Binding(addr) }

func (s shardSet) NumBindings() int {
	n := 0
	for _, g := range s {
		n += g.NumBindings()
	}
	return n
}

// checkOwnership verifies the sharding invariant: every binding lives
// on the shard that owns its address.
func (s shardSet) checkOwnership(t *testing.T) {
	t.Helper()
	for i, g := range s {
		for addr := range g.bindings {
			if s.owner(addr) != g {
				t.Fatalf("binding %s on shard %d, which does not own it", addr, i)
			}
		}
	}
}

func TestShardedRoutesByDestination(t *testing.T) {
	s, fb, k := newShardedRig(t, 4, nil)
	// Hit 40 distinct addresses; bindings land on owner shards only.
	for i := 0; i < 40; i++ {
		s.HandleInbound(k.Now(), syn(ext(i), mon(i)))
	}
	k.Run()
	if s.NumBindings() != 40 {
		t.Fatalf("bindings = %d", s.NumBindings())
	}
	s.checkOwnership(t)
	if len(fb.spawned) != 40 {
		t.Errorf("spawned = %d", len(fb.spawned))
	}
	// Every shard got some share (addresses mon(0..39) are consecutive,
	// so mod-4 spreads them evenly).
	for i, g := range s {
		if g.NumBindings() != 10 {
			t.Errorf("shard %d bindings = %d, want 10", i, g.NumBindings())
		}
	}
}

func TestShardedBindingLookup(t *testing.T) {
	s, _, k := newShardedRig(t, 3, nil)
	s.HandleInbound(k.Now(), syn(ext(0), mon(7)))
	k.Run()
	if s.Binding(mon(7)) == nil {
		t.Error("Binding lookup missed")
	}
	if s.Binding(mon(8)) != nil {
		t.Error("phantom binding")
	}
	if s.Binding(netsim.MustParseAddr("11.0.0.1")) != nil {
		t.Error("binding outside space")
	}
}

func TestShardedOutboundUsesOwnerState(t *testing.T) {
	var out int
	s, _, k := newShardedRig(t, 4, func(c *Config) {
		c.Policy = PolicyReflectSource
		c.ExternalOut = func(sim.Time, *netsim.Packet) { out++ }
	})
	s.HandleInbound(k.Now(), syn(ext(0), mon(5)))
	k.Run()
	// Reply to the eliciting peer passes — the owner shard has the peer
	// state.
	if d := s.HandleOutbound(k.Now(), syn(mon(5), ext(0))); d != DispToSource {
		t.Errorf("reply disposition = %v", d)
	}
	// Non-peer outbound drops.
	if d := s.HandleOutbound(k.Now(), syn(mon(5), ext(9))); d != DispDropped {
		t.Errorf("non-peer disposition = %v", d)
	}
	if out != 1 {
		t.Errorf("externalized = %d", out)
	}
}

func TestShardedCrossShardInternalTraffic(t *testing.T) {
	s, fb, k := newShardedRig(t, 4, func(c *Config) { c.Policy = PolicyDropAll })
	s.HandleInbound(k.Now(), syn(ext(0), mon(0))) // owner: shard 0... (mon(0) index)
	k.Run()
	// VM at mon(0) contacts mon(1) — owned by a different shard.
	if d := s.HandleOutbound(k.Now(), syn(mon(0), mon(1))); d != DispInternal {
		t.Fatalf("disposition = %v", d)
	}
	k.Run()
	if len(fb.spawned) != 2 {
		t.Fatalf("spawned = %d, want 2", len(fb.spawned))
	}
	s.checkOwnership(t)
	if b := s.Binding(mon(1)); b == nil {
		t.Error("cross-shard internal delivery did not bind")
	}
}

func TestShardedReflectionStaysLocal(t *testing.T) {
	s, _, k := newShardedRig(t, 4, func(c *Config) { c.Policy = PolicyInternalReflect })
	s.HandleInbound(k.Now(), syn(ext(0), mon(2)))
	k.Run()
	for i := 0; i < 10; i++ {
		s.HandleOutbound(k.Now(), syn(mon(2), netsim.MustParseAddr("99.0.0.1")+netsim.Addr(i)))
	}
	k.Run()
	s.checkOwnership(t)
	if st := s.owner(mon(2)).Stats(); st.OutReflected == 0 {
		t.Error("no reflections")
	}
}

func TestShardedStatsAggregate(t *testing.T) {
	s, _, k := newShardedRig(t, 2, nil)
	for i := 0; i < 10; i++ {
		s.HandleInbound(k.Now(), syn(ext(0), mon(i)))
	}
	k.Run()
	// Every packet and binding is counted on exactly one shard.
	sum := func() (st Stats) {
		for _, g := range s {
			gs := g.Stats()
			st.BindingsCreated += gs.BindingsCreated
			st.InboundPackets += gs.InboundPackets
			st.BindingsRecycled += gs.BindingsRecycled
		}
		return st
	}
	if st := sum(); st.BindingsCreated != 10 || st.InboundPackets != 10 {
		t.Errorf("aggregate stats: %+v", st)
	}
	for _, g := range s {
		g.RecycleAll(k.Now())
	}
	if s.NumBindings() != 0 {
		t.Error("RecycleAll incomplete")
	}
	if st := sum(); st.BindingsRecycled != 10 {
		t.Errorf("recycled = %d", st.BindingsRecycled)
	}
	for _, g := range s {
		g.Close()
	}
}

func TestShardedSingleShardEquivalence(t *testing.T) {
	// One shard with the hooks installed — what a one-domain engine
	// runs — must behave exactly like a bare Gateway.
	run := func(sharded bool) Stats {
		k := sim.NewKernel(9)
		fb := &fakeBackend{k: k, delay: 100 * time.Millisecond}
		cfg := DefaultConfig()
		cfg.IdleTimeout = 0
		cfg.Policy = PolicyDropAll
		var in func(sim.Time, *netsim.Packet)
		var stats func() Stats
		g := New(k, cfg, fb)
		in, stats = g.HandleInbound, g.Stats
		if sharded {
			g.SetShardHooks(func(netsim.Addr) bool { return true },
				func(sim.Time, *netsim.Packet) { t.Error("one shard re-injected across shards") })
		}
		r := sim.NewRNG(1)
		for i := 0; i < 500; i++ {
			in(k.Now(), syn(ext(r.Intn(50)), mon(r.Intn(50))))
			k.RunFor(10 * time.Millisecond)
		}
		k.Run()
		return stats()
	}
	a, b := run(false), run(true)
	if a != b {
		t.Errorf("1-shard diverges from bare gateway:\n%+v\n%+v", a, b)
	}
}
