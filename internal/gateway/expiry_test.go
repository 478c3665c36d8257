package gateway

import (
	"sort"
	"testing"
	"time"

	"potemkin/internal/netsim"
	"potemkin/internal/sim"
)

// scrubOracle is the pre-heap full-table scan, kept as the reference
// implementation: the set of bindings a scrub at `now` must recycle,
// in the deterministic (sorted-address) recycle order.
func scrubOracle(g *Gateway, now sim.Time) []netsim.Addr {
	var expired []netsim.Addr
	for addr, b := range g.bindings {
		if b.State != BindingActive {
			continue
		}
		idleOut := g.Cfg.IdleTimeout > 0 && now.Sub(b.LastActive) >= g.Cfg.IdleTimeout
		lifeOut := g.Cfg.MaxLifetime > 0 && now.Sub(b.CreatedAt) >= g.Cfg.MaxLifetime
		if idleOut || lifeOut {
			expired = append(expired, addr)
		}
	}
	sort.Slice(expired, func(i, j int) bool { return expired[i] < expired[j] })
	return expired
}

// TestExpiryHeapMatchesFullScan drives random bind/traffic/recycle
// workloads under randomized timeout configurations and checks, at every
// scrub, that the heap-driven pass recycles exactly the bindings the
// full scan would, in the same order. This is the property the lazy
// deletion invariants (expiry.go) exist to guarantee.
func TestExpiryHeapMatchesFullScan(t *testing.T) {
	idleChoices := []time.Duration{0, 2 * time.Second, 10 * time.Second}
	lifeChoices := []time.Duration{0, 15 * time.Second}

	for trial := 0; trial < 30; trial++ {
		rng := sim.NewRNG(uint64(trial) + 7)
		k := sim.NewKernel(uint64(trial))
		cfg := DefaultConfig()
		cfg.IdleTimeout = idleChoices[rng.Intn(len(idleChoices))]
		cfg.MaxLifetime = lifeChoices[rng.Intn(len(lifeChoices))]
		cfg.DetectThreshold = 0

		var recycled []netsim.Addr
		cfg.EventSink = func(ev Event) {
			if ev.Kind == EvRecycled {
				recycled = append(recycled, netsim.MustParseAddr(ev.Addr))
			}
		}
		fb := &fakeBackend{k: k, delay: 50 * time.Millisecond}
		g := New(k, cfg, fb)
		g.Close() // manual scrubbing only: the ticker would race the oracle

		addrs := make([]netsim.Addr, 24)
		for i := range addrs {
			addrs[i] = cfg.Space.Nth(uint64(i))
		}

		for step := 0; step < 120; step++ {
			switch rng.Intn(5) {
			case 0, 1: // inbound traffic: binds a new addr or refreshes LastActive
				dst := addrs[rng.Intn(len(addrs))]
				g.HandleInbound(k.Now(), netsim.TCPSyn(netsim.Addr(0xc0000000), dst, 1, 445, uint32(step)))
			case 2: // backend loses a VM: recycle outside the scrub path (stale heap entry)
				g.RecycleBinding(k.Now(), addrs[rng.Intn(len(addrs))], "crash")
				recycled = nil
			case 3: // detector flags a binding (sticky, like detect() sets it; the scrub ignores it)
				if b := g.Binding(addrs[rng.Intn(len(addrs))]); b != nil {
					b.detected = true
				}
			case 4:
				// just let time pass
			}
			k.RunFor(time.Duration(rng.Intn(3000)) * time.Millisecond)

			want := scrubOracle(g, k.Now())
			recycled = nil
			g.Scrub(k.Now())
			if len(recycled) != len(want) {
				t.Fatalf("trial %d step %d (idle=%v life=%v): scrub recycled %v, oracle wants %v",
					trial, step, cfg.IdleTimeout, cfg.MaxLifetime, recycled, want)
			}
			for i := range want {
				if recycled[i] != want[i] {
					t.Fatalf("trial %d step %d: recycle order %v, oracle wants %v",
						trial, step, recycled, want)
				}
			}
			// A second scrub at the same instant must be a no-op.
			recycled = nil
			g.Scrub(k.Now())
			if len(recycled) != 0 {
				t.Fatalf("trial %d step %d: repeated scrub recycled %v", trial, step, recycled)
			}
		}
	}
}

// TestExpiryHeapStaysBounded checks lazy deletion cannot leak entries
// without bound: rebinding the same address over and over leaves at most
// one stale entry per recycle, all drained by the next scrub pass that
// reaches their deadlines.
func TestExpiryHeapStaysBounded(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := DefaultConfig()
	cfg.IdleTimeout = time.Second
	var sank []Event
	cfg.EventSink = func(ev Event) { sank = append(sank, ev) }
	fb := &fakeBackend{k: k}
	g := New(k, cfg, fb)
	defer g.Close()

	addr := cfg.Space.Nth(7)
	for i := 0; i < 200; i++ {
		g.HandleInbound(k.Now(), netsim.TCPSyn(1, addr, 1, 445, uint32(i)))
		k.RunFor(5 * time.Second) // ticker scrubs several times; binding expires
	}
	if g.NumBindings() != 0 {
		t.Fatalf("want all bindings recycled, have %d", g.NumBindings())
	}
	if len(g.expiry) > 1 {
		t.Fatalf("expiry heap retained %d entries after full drain", len(g.expiry))
	}
}
