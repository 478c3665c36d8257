package gateway

import (
	"testing"
	"time"

	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/trace"
)

// hookBackend answers every request at once, with itself as the VM: a
// delivery goes to deliver, when set.
type hookBackend struct {
	deliver func(now sim.Time, pkt *netsim.Packet)
}

func (be *hookBackend) RequestVM(_ sim.Time, _ netsim.Addr, _ SpawnHint, ready func(VMRef, error)) {
	ready(be, nil)
}

func (be *hookBackend) Deliver(now sim.Time, pkt *netsim.Packet) {
	if be.deliver != nil {
		be.deliver(now, pkt)
	}
}

func (*hookBackend) Destroy(sim.Time) {}

// TestReflectAllocs: on a warmed gateway with no event sink and no
// tracer, reflecting an infected VM's scan into the active binding that
// impersonates its target allocates nothing. The rewritten packet is
// built in a packet the gateway holds, and the log detail is not built
// when nothing records it.
func TestReflectAllocs(t *testing.T) {
	k := sim.NewKernel(5)
	g := New(k, DefaultConfig(), &hookBackend{})
	infected, target := mon(0), ext(9)
	g.HandleInbound(k.Now(), syn(ext(0), infected))

	// A guest's scan: its own storage, marked Ephemeral, with a payload.
	scan := syn(infected, target)
	scan.Payload = []byte("exploit bytes")
	scan.Ephemeral = true
	if d := g.HandleOutbound(k.Now(), scan); d != DispReflected {
		t.Fatalf("first scan: %v, want reflected", d)
	}
	if n := g.NumBindings(); n != 2 {
		t.Fatalf("%d bindings, want the infected VM and its reflection target", n)
	}
	before := g.Stats()
	const runs = 100
	avg := testing.AllocsPerRun(runs, func() {
		if d := g.HandleOutbound(k.Now(), scan); d != DispReflected {
			t.Fatalf("scan: %v, want reflected", d)
		}
	})
	after := g.Stats()
	if got := after.OutReflected - before.OutReflected; got != runs+1 {
		t.Fatalf("reflected %d scans, want %d", got, runs+1)
	}
	if got := after.DeliveredToVM - before.DeliveredToVM; got != runs+1 {
		t.Fatalf("delivered %d reflected scans, want %d", got, runs+1)
	}
	if avg != 0 {
		t.Errorf("reflecting a scan into an active binding allocates %.0f objects, want 0", avg)
	}
}

// TestHeldSparesBoundedByBindings: the free list of held packets keeps
// at most one spare per live binding. Bindings that each queued a full
// pendingLimit of packets while their clones were in flight return all
// of them at the flush, and the list must not keep them all.
func TestHeldSparesBoundedByBindings(t *testing.T) {
	g, _, k := newTestGateway(t, nil)
	const n = 8
	const limit = pendingLimit
	for i := 0; i < n; i++ {
		for j := 0; j < limit; j++ {
			g.HandleInbound(k.Now(), syn(ext(j), mon(i)))
		}
	}
	if got := g.Stats().PendingQueued; got != n*limit {
		t.Fatalf("%d packets queued, want %d", got, n*limit)
	}
	k.RunFor(time.Second) // the clones complete and the queues flush
	if got := g.Stats().DeliveredToVM; got != uint64(n*limit) {
		t.Fatalf("%d packets delivered, want %d", got, n*limit)
	}
	if got := g.spareHeld(); got > n {
		t.Errorf("the gateway keeps %d spare packets for %d bindings, want at most %d", got, n, n)
	} else if got == 0 {
		t.Error("the gateway kept no spare packet to reuse")
	}
}

// TestDrainedQueuesLetGoOfBursts: a drained queue keeps its array only
// if it has at most pendingKeep slots. Bindings that each queued
// pendingLimit packets, with their arrival times (tracing is on), hold
// no longer array after their flush, and none after a recycle with
// their packets still queued; a binding that queued one packet keeps
// its array for the next clone.
func TestDrainedQueuesLetGoOfBursts(t *testing.T) {
	g, _, k := newTestGateway(t, func(c *Config) {
		c.Tracer = trace.New(func(trace.Record) {}, 0)
	})
	const n = 4
	queue := func(addr netsim.Addr, packets int) *Binding {
		for j := 0; j < packets; j++ {
			g.HandleInbound(k.Now(), syn(ext(j), addr))
		}
		b := g.Binding(addr)
		if len(b.pending) != packets || len(b.pendingAt) != packets {
			t.Fatalf("%d packets queued with %d arrival times, want %d", len(b.pending), len(b.pendingAt), packets)
		}
		return b
	}
	kept := func(when string, b *Binding) {
		t.Helper()
		if cap(b.pending) > pendingKeep || cap(b.pendingAt) > pendingKeep {
			t.Errorf("after its %s, a binding keeps %d queue slots and %d arrival-time slots, want at most %d", when, cap(b.pending), cap(b.pendingAt), pendingKeep)
		}
	}
	var flushed, recycled [n]*Binding
	for i := range n {
		flushed[i] = queue(mon(i), pendingLimit)
		recycled[i] = queue(mon(n+i), pendingLimit)
	}
	single := queue(mon(2*n), 1)
	for i := range n {
		g.RecycleBinding(k.Now(), mon(n+i), "test")
	}
	k.RunFor(time.Second) // the clones complete and the queues flush
	if got := g.Stats().DeliveredToVM; got != uint64(n*pendingLimit+1) {
		t.Fatalf("%d packets delivered, want %d", got, n*pendingLimit+1)
	}
	for i := range n {
		kept("flush", flushed[i])
		kept("recycle", recycled[i])
	}
	if single.State != BindingActive || cap(single.pending) == 0 || cap(single.pendingAt) == 0 {
		t.Errorf("a binding that queued one packet kept %d queue slots and %d arrival-time slots, want its arrays", cap(single.pending), cap(single.pendingAt))
	}
}

// TestHeldPacketsNest: a VM that answers a reflected packet
// synchronously reaches reflect again while the outer rewritten packet
// is still being delivered. Each level holds its own packet, so the
// outer one is intact when the inner call returns.
func TestHeldPacketsNest(t *testing.T) {
	k := sim.NewKernel(9)
	be := &hookBackend{}
	g := New(k, DefaultConfig(), be)
	g.HandleInbound(k.Now(), syn(ext(0), mon(0)))
	first, second := syn(mon(0), ext(1)), syn(mon(0), ext(2))
	g.HandleOutbound(k.Now(), first)
	g.HandleOutbound(k.Now(), second) // both reflection targets are active

	var seen []netsim.Packet
	nested := false
	be.deliver = func(now sim.Time, pkt *netsim.Packet) {
		if !nested {
			nested = true
			g.HandleOutbound(now, second) // a synchronous reply, reflected again
		}
		seen = append(seen, *pkt)
	}
	g.HandleOutbound(k.Now(), first)
	if len(seen) != 2 {
		t.Fatalf("%d deliveries, want 2", len(seen))
	}
	inner, outer := seen[0], seen[1]
	if inner.Dst == outer.Dst || outer.Src != mon(0) || outer.DstPort != first.DstPort {
		t.Fatalf("outer reflected packet %+v changed under the nested reflection %+v", outer, inner)
	}
}
