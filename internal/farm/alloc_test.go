package farm

import (
	"testing"
	"time"

	"potemkin/internal/gateway"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
)

// TestColdBindRecycleAllocs is the allocation floor of the whole clone
// lifecycle, gateway to frame store: on a warmed domain, a batch of cold
// arrivals — each binds its address, queues behind a flash clone, starts
// a guest (which runs its dirty-page burst and arms its touch timer),
// is served a SYN-ACK that crosses the farm link and the containment
// policy back to the scanner, then idles out and is recycled — allocates
// nothing. Every object the cycle needs (binding, spawn request, VM,
// disk overlay, address space with its page table, guest instance with
// its connection table, link hops, frame slots, delta buffers) comes off
// a free list the previous batch filled.
//
// The batch may allocate a quarter of an object per arrival: under
// -race (how CI runs the allocation floors) the runtime's own
// bookkeeping costs a few objects a run, while anything the lifecycle
// allocates costs at least one per arrival.
//
// The arrivals come two ways: as the caller's packets, not Ephemeral,
// and as Ephemeral packets carrying a payload, which is how a replayed
// record or a wire frame arrives. The gateway queues a copy of either
// in a packet it holds.
func TestColdBindRecycleAllocs(t *testing.T) {
	t.Run("caller", func(t *testing.T) { testColdBindRecycleAllocs(t, false) })
	t.Run("ephemeral", func(t *testing.T) { testColdBindRecycleAllocs(t, true) })
}

func testColdBindRecycleAllocs(t *testing.T, ephemeral bool) {
	const batch = 64
	replies := 0
	r := newRig(t, nil, func(c *gateway.Config) {
		c.Policy = gateway.PolicyReflectSource
		c.IdleTimeout = time.Second
		c.ExternalOut = func(sim.Time, *netsim.Packet) { replies++ }
	})
	probes := make([]*netsim.Packet, batch)
	for i := range probes {
		probes[i] = probe(scanner+netsim.Addr(i), victim+netsim.Addr(i))
		if ephemeral {
			// A replayed record's payload: zeros, which no service
			// answers, so each arrival still draws one SYN-ACK.
			probes[i].Payload = make([]byte, 40)
			probes[i].Ephemeral = true
		}
	}
	cycle := func() {
		for _, p := range probes {
			r.g.HandleInbound(r.k.Now(), p)
		}
		// Clone (~0.4 s), serve, one idle second, a scrub tick; then long
		// enough for the recycled guests' last touch timers to fire.
		r.k.RunFor(10 * time.Second)
		if n := r.g.NumBindings() + r.f.LiveVMs(); n != 0 {
			t.Fatalf("%d bindings and VMs outlived the idle timeout", n)
		}
	}
	for i := 0; i < 3; i++ {
		cycle() // warm the free lists, the slab and the kernel's item pool
	}
	spawns, before := r.f.Stats().Spawns, replies
	avg := testing.AllocsPerRun(10, cycle)
	if got := r.f.Stats().Spawns - spawns; got != 11*batch {
		t.Fatalf("measured cycles spawned %d VMs, want %d", got, 11*batch)
	}
	if replies-before != 11*batch {
		t.Fatalf("measured cycles sent %d SYN-ACKs, want %d", replies-before, 11*batch)
	}
	if faults := r.f.Hosts()[0].Stats().CowFaults; faults == 0 {
		t.Fatal("guests started but nothing faulted")
	}
	if avg > batch/4 {
		t.Errorf("a batch of %d bind → clone → serve → expire → recycle cycles allocates %.0f objects on a warmed domain, want 0", batch, avg)
	}
	if err := r.f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
