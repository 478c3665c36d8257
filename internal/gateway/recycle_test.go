package gateway

import (
	"testing"
	"time"

	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/trace"
)

// Tests for binding recycling: the gateway reuses a recycled binding's
// struct and maps for the next address, clean, and never while a
// backend answer or retry timer addressed to it is outstanding.

// TestRecycledBindingHygiene gives a binding every kind of per-tenant
// state — peers, outbound targets, a detection, spans, queued packets
// with their arrival times — recycles it, and checks the
// next address bound on the same struct sees none of it.
func TestRecycledBindingHygiene(t *testing.T) {
	tr := trace.New(func(trace.Record) {}, 0)
	g, fb, k := newTestGateway(t, func(c *Config) {
		c.Tracer = tr
		c.Policy = PolicyOpen
		c.DetectThreshold = 3
	})
	for i := 0; i <= maxPeers; i++ { // more peers than maxPeers: the ring evicts
		g.HandleInbound(k.Now(), syn(ext(i), mon(0)))
	}
	first := g.Binding(mon(0))
	if len(first.pending) != pendingLimit || len(first.pendingAt) != pendingLimit {
		t.Fatalf("setup: %d packets queued with %d arrival times, want %d", len(first.pending), len(first.pendingAt), pendingLimit)
	}
	k.Run()
	for i := 0; i < 5; i++ {
		g.HandleOutbound(k.Now(), syn(mon(0), ext(100+i)))
	}
	if !first.Detected() || first.OutTargets() == 0 || first.Peers() != maxPeers || first.span == nil || first.activeSpan == nil {
		t.Fatalf("setup: binding not fully dressed: %+v", first)
	}
	// A second batch of queued packets on a pending binding that is
	// recycled before its VM arrives: the queue itself must not survive.
	g.HandleInbound(k.Now(), syn(ext(50), mon(1)))
	pendingOne := g.Binding(mon(1))
	gen := first.gen

	g.RecycleAll(k.Now())
	if g.freeBindings.Len() != 1 || g.freeBindings.List[0] != first {
		t.Fatalf("free list holds %d bindings, want only the one nothing is waiting on", g.freeBindings.Len())
	}
	if first.VM != nil || first.span != nil || first.spawnSpan != nil || first.activeSpan != nil {
		t.Fatal("the parked binding still holds its last tenant's VM or spans")
	}
	if !pendingOne.gone || !pendingOne.waiting {
		t.Fatal("a binding recycled mid-clone should be gone and still waiting for the backend")
	}

	g.HandleInbound(k.Now(), syn(ext(7), mon(9)))
	b := g.Binding(mon(9))
	if b != first {
		t.Fatal("the next binding did not reuse the recycled struct")
	}
	if b.Addr != mon(9) || b.State != BindingPending || b.VM != nil || b.Hint.Source != ext(7) {
		t.Errorf("identity not reset: %+v", b)
	}
	if b.Peers() != 1 || !b.isPeer(ext(7)) || b.isPeer(ext(5)) || len(b.peers.ring) != 1 || b.peers.head != 0 {
		t.Errorf("peers survived: %d peers, ring %v from %d", b.Peers(), b.peers.ring, b.peers.head)
	}
	if b.OutTargets() != 0 || b.Detected() || b.attempt != 0 || b.gone {
		t.Errorf("containment state survived: targets=%d detected=%v attempt=%d gone=%v",
			b.OutTargets(), b.Detected(), b.attempt, b.gone)
	}
	if b.span == nil || b.span == first.activeSpan || b.activeSpan != nil || b.span.Done() {
		t.Error("spans survived: want a fresh root span, no active span")
	}
	if len(b.pending) != 1 || len(b.pendingAt) != 1 {
		t.Errorf("queue survived: %d packets, %d arrival times, want the 1 just queued", len(b.pending), len(b.pendingAt))
	}
	if b.gen == gen {
		t.Error("tenant generation did not advance: the expiry heap could not tell the tenants apart")
	}

	// The backend now answers the binding recycled mid-clone: its late VM
	// is destroyed, and only then is that struct free.
	k.Run()
	late := fb.spawned[1]
	if !late.destroyed || len(late.delivered) != 0 {
		t.Errorf("late VM for a recycled binding: destroyed=%v delivered=%d", late.destroyed, len(late.delivered))
	}
	if g.freeBindings.Len() != 1 || g.freeBindings.List[0] != pendingOne {
		t.Error("the binding recycled mid-clone did not reach the free list when the backend answered")
	}
	if got := len(fb.spawned[2].delivered); got != 1 {
		t.Errorf("new tenant got %d packets, want 1", got)
	}
}

// TestRebindSameAddressMidRetry recycles a binding while its spawn retry
// timer is pending and rebinds the same address at once. The timer must
// not re-request on the new tenant's behalf.
func TestRebindSameAddressMidRetry(t *testing.T) {
	g, fb, k := newTestGateway(t, func(c *Config) { c.SpawnRetryBudget = 2 })
	fb.failNext = true
	g.HandleInbound(k.Now(), syn(ext(0), mon(0)))
	k.RunFor(fb.delay + spawnRetryBackoff/2) // the failure is in; the retry is queued
	first := g.Binding(mon(0))
	if first == nil || !first.waiting || fb.requests != 1 {
		t.Fatalf("setup: want a binding backing off after 1 request, have %+v after %d", first, fb.requests)
	}
	g.RecycleBinding(k.Now(), mon(0), "test")
	g.HandleInbound(k.Now(), syn(ext(1), mon(0)))
	second := g.Binding(mon(0))
	if second == first {
		t.Fatal("a binding with a retry timer in flight was reused")
	}
	k.Run()
	if fb.requests != 2 {
		t.Errorf("backend saw %d requests, want 2: the recycled binding's retry must not fire", fb.requests)
	}
	if second.State != BindingActive || len(fb.spawned) != 1 || len(fb.spawned[0].delivered) != 1 {
		t.Errorf("new tenant: state=%v spawned=%d", second.State, len(fb.spawned))
	}
	if g.freeBindings.Len() != 1 || g.freeBindings.List[0] != first {
		t.Error("the old binding is not free after its retry timer fired")
	}
}

// TestExpiryIgnoresPreviousTenant: a heap entry pushed for one tenant of
// a binding struct must not expire the next tenant at the same address.
func TestExpiryIgnoresPreviousTenant(t *testing.T) {
	g, _, k := newTestGateway(t, func(c *Config) { c.IdleTimeout = 10 * time.Second })
	g.HandleInbound(k.Now(), syn(ext(0), mon(0)))
	k.RunFor(time.Second)
	first := g.Binding(mon(0))
	g.RecycleBinding(k.Now(), mon(0), "test") // its heap entry (due t=10s) stays behind
	k.RunFor(8 * time.Second)
	g.HandleInbound(k.Now(), syn(ext(0), mon(0))) // t=9s: same address, same struct
	if g.Binding(mon(0)) != first {
		t.Fatal("setup: struct not reused")
	}
	k.RunFor(5 * time.Second) // t=14s: past the stale entry, before the real deadline
	if g.Binding(mon(0)) == nil {
		t.Fatal("the previous tenant's expiry entry recycled the new binding")
	}
	k.RunFor(10 * time.Second)
	if g.Binding(mon(0)) != nil {
		t.Error("the new binding never expired")
	}
}

// TestGatewaySteadyStateAllocs: once the free lists are warm, binding an
// address, queueing its first packet, activating, expiring and recycling
// allocates nothing in the gateway (the backend here is a fake that
// allocates nothing either).
func TestGatewaySteadyStateAllocs(t *testing.T) {
	k := sim.NewKernel(3)
	be := &reuseBackend{k: k}
	be.fire = func(sim.Time) {
		for _, ready := range be.due {
			ready(&be.vm, nil)
		}
		clear(be.due)
		be.due = be.due[:0]
	}
	cfg := DefaultConfig()
	cfg.IdleTimeout = time.Second
	g := New(k, cfg, be)
	const batch = 64
	pkts := make([]*netsim.Packet, batch)
	for i := range pkts {
		pkts[i] = syn(ext(i), mon(i))
	}
	cycle := func() {
		for _, p := range pkts {
			g.HandleInbound(k.Now(), p)
		}
		k.RunFor(3 * time.Second)
		if g.NumBindings() != 0 {
			t.Fatalf("%d bindings outlived their idle timeout", g.NumBindings())
		}
	}
	cycle()
	cycle()
	if avg := testing.AllocsPerRun(20, cycle); avg > batch/4 {
		t.Errorf("a batch of %d bind → activate → expire cycles allocates %.0f objects on a warmed gateway, want 0", batch, avg)
	}
	if got := g.Stats().BindingsRecycled; got == 0 || got != g.Stats().BindingsCreated {
		t.Errorf("created %d, recycled %d", g.Stats().BindingsCreated, got)
	}
}

// reuseBackend answers every request from one timer with one shared VM,
// so that it contributes no allocations of its own.
type reuseBackend struct {
	k    *sim.Kernel
	vm   nopVM
	due  []func(VMRef, error)
	fire sim.Event
}

func (be *reuseBackend) RequestVM(_ sim.Time, _ netsim.Addr, _ SpawnHint, ready func(VMRef, error)) {
	if len(be.due) == 0 {
		be.k.After(100*time.Millisecond, be.fire)
	}
	be.due = append(be.due, ready)
}

type nopVM struct{}

func (*nopVM) Deliver(sim.Time, *netsim.Packet) {}
func (*nopVM) Destroy(sim.Time)                 {}
