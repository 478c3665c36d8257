package gateway

import (
	"testing"
	"time"

	"potemkin/internal/gre"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
)

// fakeVM records deliveries and destruction. ephemeral[i] is the flag
// delivered[i] arrived with.
type fakeVM struct {
	addr      netsim.Addr
	delivered []*netsim.Packet
	ephemeral []bool
	destroyed bool
}

// Deliver keeps the packet, cloning it first when it is marked Ephemeral,
// as every consumer of gateway traffic must.
func (f *fakeVM) Deliver(_ sim.Time, pkt *netsim.Packet) {
	f.ephemeral = append(f.ephemeral, pkt.Ephemeral)
	if pkt.Ephemeral {
		pkt = pkt.Clone()
	}
	f.delivered = append(f.delivered, pkt)
}

func (f *fakeVM) Destroy(_ sim.Time) { f.destroyed = true }

// fakeBackend spawns fakeVMs after a configurable clone delay.
type fakeBackend struct {
	k        *sim.Kernel
	delay    time.Duration
	failNext bool  // fail the next request only
	failN    int   // fail the next N requests
	failErr  error // error to fail with (default ErrFake)
	spawned  []*fakeVM
	requests int
}

func (fb *fakeBackend) RequestVM(now sim.Time, addr netsim.Addr, hint SpawnHint, ready func(VMRef, error)) {
	fb.requests++
	if fb.failNext || fb.failN > 0 {
		fb.failNext = false
		if fb.failN > 0 {
			fb.failN--
		}
		err := fb.failErr
		if err == nil {
			err = ErrFake
		}
		fb.k.After(fb.delay, func(sim.Time) { ready(nil, err) })
		return
	}
	vm := &fakeVM{addr: addr}
	fb.spawned = append(fb.spawned, vm)
	fb.k.After(fb.delay, func(sim.Time) { ready(vm, nil) })
}

// ErrFake is the fake backend's spawn failure.
var ErrFake = errFake{}

type errFake struct{}

func (errFake) Error() string { return "fake spawn failure" }

func newTestGateway(t *testing.T, mutate func(*Config)) (*Gateway, *fakeBackend, *sim.Kernel) {
	t.Helper()
	k := sim.NewKernel(11)
	fb := &fakeBackend{k: k, delay: 500 * time.Millisecond}
	cfg := DefaultConfig()
	cfg.IdleTimeout = 0 // most tests manage recycling explicitly
	if mutate != nil {
		mutate(&cfg)
	}
	return New(k, cfg, fb), fb, k
}

func ext(i int) netsim.Addr { return netsim.MustParseAddr("200.1.1.1") + netsim.Addr(i) }
func mon(i int) netsim.Addr { return netsim.MustParseAddr("10.5.0.1") + netsim.Addr(i) }
func syn(src, dst netsim.Addr) *netsim.Packet {
	return netsim.TCPSyn(src, dst, 40000, 445, 7)
}

func TestInboundCreatesBindingAndQueues(t *testing.T) {
	g, fb, k := newTestGateway(t, nil)
	g.HandleInbound(k.Now(), syn(ext(0), mon(0)))
	if g.NumBindings() != 1 {
		t.Fatalf("bindings = %d", g.NumBindings())
	}
	b := g.Binding(mon(0))
	if b.State != BindingPending {
		t.Errorf("state = %v", b.State)
	}
	// Second packet while pending also queues.
	g.HandleInbound(k.Now(), syn(ext(1), mon(0)))
	k.Run()
	if b.State != BindingActive {
		t.Errorf("state after clone = %v", b.State)
	}
	if len(fb.spawned) != 1 {
		t.Fatalf("spawned = %d", len(fb.spawned))
	}
	if got := len(fb.spawned[0].delivered); got != 2 {
		t.Errorf("delivered = %d, want 2 (queued packets flushed)", got)
	}
	if fb.requests != 1 {
		t.Errorf("requests = %d, want 1 (one VM per address)", fb.requests)
	}
}

func TestInboundAfterActiveDeliversDirectly(t *testing.T) {
	g, fb, k := newTestGateway(t, nil)
	g.HandleInbound(k.Now(), syn(ext(0), mon(0)))
	k.Run()
	g.HandleInbound(k.Now(), syn(ext(0), mon(0)))
	if got := len(fb.spawned[0].delivered); got != 2 {
		t.Errorf("delivered = %d", got)
	}
	if g.Stats().DeliveredToVM != 2 {
		t.Errorf("DeliveredToVM = %d", g.Stats().DeliveredToVM)
	}
}

func TestInboundOutsideSpaceIgnored(t *testing.T) {
	g, fb, k := newTestGateway(t, nil)
	g.HandleInbound(k.Now(), syn(ext(0), netsim.MustParseAddr("11.0.0.1")))
	if g.NumBindings() != 0 || fb.requests != 0 {
		t.Error("binding created for address outside space")
	}
	if g.Stats().InboundOutside != 1 {
		t.Errorf("InboundOutside = %d", g.Stats().InboundOutside)
	}
}

func TestPendingQueueOverflow(t *testing.T) {
	g, _, k := newTestGateway(t, nil)
	for i := 0; i < pendingLimit+7; i++ {
		g.HandleInbound(k.Now(), syn(ext(i), mon(0)))
	}
	if got := g.Stats().PendingDropped; got != 7 {
		t.Errorf("PendingDropped = %d, want 7", got)
	}
}

func TestSpawnFailureCleansBinding(t *testing.T) {
	g, fb, k := newTestGateway(t, nil)
	fb.failNext = true
	g.HandleInbound(k.Now(), syn(ext(0), mon(0)))
	k.Run()
	if g.NumBindings() != 0 {
		t.Error("failed binding not removed")
	}
	if g.Stats().SpawnFailures != 1 {
		t.Errorf("SpawnFailures = %d", g.Stats().SpawnFailures)
	}
	// Address can be re-bound afterwards.
	g.HandleInbound(k.Now(), syn(ext(0), mon(0)))
	k.Run()
	if g.NumBindings() != 1 || g.Binding(mon(0)).State != BindingActive {
		t.Error("re-binding after failure broken")
	}
}

func TestGREFrameInbound(t *testing.T) {
	g, fb, k := newTestGateway(t, nil)
	inner := syn(ext(0), mon(0))
	frame := gre.Encap(&gre.Header{HasKey: true, Key: 1}, inner.Marshal())
	g.HandleGREFrame(k.Now(), frame)
	k.Run()
	if len(fb.spawned) != 1 || len(fb.spawned[0].delivered) != 1 {
		t.Fatal("GRE frame did not reach VM")
	}
	got := fb.spawned[0].delivered[0]
	if got.Src != inner.Src || got.Dst != inner.Dst || got.DstPort != 445 {
		t.Errorf("inner packet mangled: %s", got)
	}
}

func TestGREFrameGarbageCounted(t *testing.T) {
	g, _, k := newTestGateway(t, nil)
	g.HandleGREFrame(k.Now(), []byte{1, 2, 3})
	g.HandleGREFrame(k.Now(), gre.Encap(&gre.Header{}, []byte("not ip")))
	if g.Stats().InboundNonIP != 2 {
		t.Errorf("InboundNonIP = %d", g.Stats().InboundNonIP)
	}
}

func TestIdleRecycling(t *testing.T) {
	g, fb, k := newTestGateway(t, func(c *Config) { c.IdleTimeout = 5 * time.Second })
	g.HandleInbound(k.Now(), syn(ext(0), mon(0)))
	k.RunUntil(sim.Start.Add(2 * time.Second)) // clone done, VM active
	if g.NumBindings() != 1 {
		t.Fatal("binding missing")
	}
	k.RunUntil(sim.Start.Add(30 * time.Second))
	if g.NumBindings() != 0 {
		t.Error("idle binding not recycled")
	}
	if !fb.spawned[0].destroyed {
		t.Error("VM not destroyed on recycle")
	}
	if g.Stats().BindingsRecycled != 1 {
		t.Errorf("BindingsRecycled = %d", g.Stats().BindingsRecycled)
	}
	g.Close()
}

func TestActivityPreventsRecycling(t *testing.T) {
	g, _, k := newTestGateway(t, func(c *Config) { c.IdleTimeout = 5 * time.Second })
	g.HandleInbound(k.Now(), syn(ext(0), mon(0)))
	// Keep the binding warm with traffic every 2 s for 60 s.
	tick := k.Every(2*time.Second, func(now sim.Time) {
		g.HandleInbound(now, syn(ext(0), mon(0)))
	})
	k.RunUntil(sim.Start.Add(60 * time.Second))
	tick.Stop()
	if g.NumBindings() != 1 {
		t.Error("active binding recycled")
	}
	k.RunUntil(sim.Start.Add(120 * time.Second))
	if g.NumBindings() != 0 {
		t.Error("binding survived after traffic stopped")
	}
	g.Close()
}

func TestMaxLifetimeRecycling(t *testing.T) {
	g, _, k := newTestGateway(t, func(c *Config) { c.MaxLifetime = 10 * time.Second })
	g.HandleInbound(k.Now(), syn(ext(0), mon(0)))
	tick := k.Every(time.Second, func(now sim.Time) {
		g.HandleInbound(now, syn(ext(0), mon(0)))
	})
	k.RunUntil(sim.Start.Add(30 * time.Second))
	tick.Stop()
	if g.Stats().BindingsRecycled == 0 {
		t.Error("lifetime cap never recycled an active binding")
	}
	g.Close()
}

func TestRecycleDuringCloneDestroysLateVM(t *testing.T) {
	g, fb, k := newTestGateway(t, nil)
	g.HandleInbound(k.Now(), syn(ext(0), mon(0)))
	// Recycle everything before the clone lands.
	g.RecycleAll(k.Now())
	k.Run()
	if len(fb.spawned) != 1 {
		t.Fatal("no spawn")
	}
	if !fb.spawned[0].destroyed {
		t.Error("late VM not destroyed")
	}
	if g.NumBindings() != 0 {
		t.Error("phantom binding")
	}
}

// --- outbound containment ---

func outboundFrom(t *testing.T, g *Gateway, k *sim.Kernel, vmAddr netsim.Addr) {
	t.Helper()
	g.HandleInbound(k.Now(), syn(ext(0), vmAddr))
	k.Run()
}

func TestPolicyOpenForwards(t *testing.T) {
	var leaked []*netsim.Packet
	g, _, k := newTestGateway(t, func(c *Config) {
		c.Policy = PolicyOpen
		c.ExternalOut = func(_ sim.Time, p *netsim.Packet) { leaked = append(leaked, p) }
	})
	outboundFrom(t, g, k, mon(0))
	d := g.HandleOutbound(k.Now(), syn(mon(0), netsim.MustParseAddr("99.9.9.9")))
	if d != DispAllowedOpen || len(leaked) != 1 {
		t.Errorf("disposition = %v, leaked = %d", d, len(leaked))
	}
}

func TestPolicyDropAllContains(t *testing.T) {
	var leaked int
	g, _, k := newTestGateway(t, func(c *Config) {
		c.Policy = PolicyDropAll
		c.ExternalOut = func(sim.Time, *netsim.Packet) { leaked++ }
	})
	outboundFrom(t, g, k, mon(0))
	// Even a reply to the eliciting source is dropped.
	if d := g.HandleOutbound(k.Now(), syn(mon(0), ext(0))); d != DispDropped {
		t.Errorf("reply disposition = %v", d)
	}
	if d := g.HandleOutbound(k.Now(), syn(mon(0), netsim.MustParseAddr("99.9.9.9"))); d != DispDropped {
		t.Errorf("scan disposition = %v", d)
	}
	if leaked != 0 {
		t.Errorf("leaked %d packets under drop-all", leaked)
	}
}

func TestPolicyReflectSourceAllowsRepliesOnly(t *testing.T) {
	var out []*netsim.Packet
	g, _, k := newTestGateway(t, func(c *Config) {
		c.Policy = PolicyReflectSource
		c.ExternalOut = func(_ sim.Time, p *netsim.Packet) { out = append(out, p) }
	})
	outboundFrom(t, g, k, mon(0)) // ext(0) contacted mon(0)
	if d := g.HandleOutbound(k.Now(), syn(mon(0), ext(0))); d != DispToSource {
		t.Errorf("reply disposition = %v", d)
	}
	if d := g.HandleOutbound(k.Now(), syn(mon(0), ext(5))); d != DispDropped {
		t.Errorf("non-peer disposition = %v", d)
	}
	if len(out) != 1 || out[0].Dst != ext(0) {
		t.Errorf("externalized: %v", out)
	}
}

func TestDNSProxied(t *testing.T) {
	var out []*netsim.Packet
	g, _, k := newTestGateway(t, func(c *Config) {
		c.Policy = PolicyReflectSource
		c.ExternalOut = func(_ sim.Time, p *netsim.Packet) { out = append(out, p.Clone()) }
	})
	outboundFrom(t, g, k, mon(0))
	q := netsim.UDPDatagram(mon(0), netsim.MustParseAddr("4.4.4.4"), 5353, 53, []byte("query"))
	if d := g.HandleOutbound(k.Now(), q); d != DispDNSProxied {
		t.Fatalf("disposition = %v", d)
	}
	if len(out) != 1 || out[0].Dst != g.Cfg.Resolver {
		t.Errorf("DNS not rewritten to resolver: %v", out)
	}
	// Original packet must not be mutated (clone semantics).
	if q.Dst != netsim.MustParseAddr("4.4.4.4") {
		t.Error("original packet mutated")
	}
}

func TestInternalTrafficStaysInside(t *testing.T) {
	g, fb, k := newTestGateway(t, func(c *Config) { c.Policy = PolicyDropAll })
	outboundFrom(t, g, k, mon(0))
	// VM at mon(0) talks to mon(7): delivered inbound, new VM spawned.
	d := g.HandleOutbound(k.Now(), syn(mon(0), mon(7)))
	if d != DispInternal {
		t.Fatalf("disposition = %v", d)
	}
	k.Run()
	if len(fb.spawned) != 2 {
		t.Errorf("spawned = %d, want 2", len(fb.spawned))
	}
	if g.Stats().OutInternal != 1 {
		t.Errorf("OutInternal = %d", g.Stats().OutInternal)
	}
}

func TestInternalReflection(t *testing.T) {
	g, fb, k := newTestGateway(t, func(c *Config) { c.Policy = PolicyInternalReflect })
	outboundFrom(t, g, k, mon(0))
	target := netsim.MustParseAddr("99.9.9.9")
	d := g.HandleOutbound(k.Now(), syn(mon(0), target))
	if d != DispReflected {
		t.Fatalf("disposition = %v", d)
	}
	k.Run()
	if len(fb.spawned) != 2 {
		t.Fatalf("spawned = %d, want reflected VM", len(fb.spawned))
	}
	refVM := fb.spawned[1]
	if len(refVM.delivered) != 1 {
		t.Fatalf("reflected VM deliveries = %d", len(refVM.delivered))
	}
	got := refVM.delivered[0]
	if !g.Cfg.Space.Contains(got.Dst) {
		t.Errorf("reflected packet dst %s outside space", got.Dst)
	}
	if got.Src != mon(0) {
		t.Errorf("reflected packet src = %s", got.Src)
	}
	// Stable mapping: a second packet to the same external target lands
	// on the same internal address.
	d2 := g.HandleOutbound(k.Now(), syn(mon(0), target))
	if d2 != DispReflected {
		t.Fatalf("second disposition = %v", d2)
	}
	k.Run()
	if len(fb.spawned) != 2 {
		t.Errorf("second reflection spawned a new VM")
	}
	if len(refVM.delivered) != 2 {
		t.Errorf("reflected VM deliveries = %d, want 2", len(refVM.delivered))
	}
}

func TestReflectionLimit(t *testing.T) {
	g, _, k := newTestGateway(t, func(c *Config) {
		c.Policy = PolicyInternalReflect
		c.ReflectionLimit = 2
	})
	outboundFrom(t, g, k, mon(0))
	for i := 0; i < 5; i++ {
		g.HandleOutbound(k.Now(), syn(mon(0), netsim.MustParseAddr("99.9.9.9")+netsim.Addr(i)))
	}
	st := g.Stats()
	if st.OutReflected != 2 {
		t.Errorf("OutReflected = %d, want 2", st.OutReflected)
	}
	if st.OutReflectDenied != 3 {
		t.Errorf("OutReflectDenied = %d, want 3", st.OutReflectDenied)
	}
}

func TestReflectionRecycleFreesMapping(t *testing.T) {
	g, _, k := newTestGateway(t, func(c *Config) {
		c.Policy = PolicyInternalReflect
		c.ReflectionLimit = 1
	})
	outboundFrom(t, g, k, mon(0))
	g.HandleOutbound(k.Now(), syn(mon(0), netsim.MustParseAddr("99.9.9.9")))
	k.Run()
	if g.Stats().ReflectionsActive != 1 {
		t.Fatalf("active reflections = %d", g.Stats().ReflectionsActive)
	}
	g.RecycleAll(k.Now())
	if g.Stats().ReflectionsActive != 0 {
		t.Error("reflection mapping survived recycle")
	}
}

func TestScanDetector(t *testing.T) {
	var detectedAddr netsim.Addr
	g, _, k := newTestGateway(t, func(c *Config) {
		c.Policy = PolicyDropAll
		c.DetectThreshold = 5
		c.OnDetected = func(_ sim.Time, a netsim.Addr, _ int) { detectedAddr = a }
	})
	outboundFrom(t, g, k, mon(0))
	for i := 0; i < 10; i++ {
		g.HandleOutbound(k.Now(), syn(mon(0), netsim.MustParseAddr("99.0.0.1")+netsim.Addr(i)))
	}
	if detectedAddr != mon(0) {
		t.Errorf("detected = %s", detectedAddr)
	}
	if g.Stats().DetectedInfected != 1 {
		t.Errorf("DetectedInfected = %d (should fire once)", g.Stats().DetectedInfected)
	}
	if !g.Binding(mon(0)).Detected() {
		t.Error("binding not marked detected")
	}
}

func TestPeerTableBounded(t *testing.T) {
	g, _, k := newTestGateway(t, nil)
	for i := 0; i <= maxPeers; i++ {
		g.HandleInbound(k.Now(), syn(ext(i), mon(0)))
	}
	if got := g.Binding(mon(0)).Peers(); got != maxPeers {
		t.Errorf("peers = %d, want %d", got, maxPeers)
	}
	// Most recent peers retained (oldest-first eviction).
	b := g.Binding(mon(0))
	for i := 1; i <= maxPeers; i++ {
		if !b.isPeer(ext(i)) {
			t.Errorf("recent peer %d evicted", i)
		}
	}
	if b.isPeer(ext(0)) {
		t.Error("oldest peer survived eviction")
	}
}

func TestNoEscapeUnderContainmentProperty(t *testing.T) {
	// Property: under every non-open policy, no TCP packet reaches
	// ExternalOut except replies to eliciting sources.
	for _, pol := range []Policy{PolicyDropAll, PolicyReflectSource, PolicyInternalReflect} {
		var escaped []*netsim.Packet
		g, _, k := newTestGateway(t, func(c *Config) {
			c.Policy = pol
			c.ExternalOut = func(_ sim.Time, p *netsim.Packet) { escaped = append(escaped, p.Clone()) }
		})
		r := sim.NewRNG(99)
		// 20 bindings elicited by known sources.
		for i := 0; i < 20; i++ {
			g.HandleInbound(k.Now(), syn(ext(i), mon(i)))
		}
		k.Run()
		// Storm of random outbound attempts.
		for i := 0; i < 2000; i++ {
			src := mon(r.Intn(20))
			dst := netsim.Addr(r.Uint64n(1 << 32))
			g.HandleOutbound(k.Now(), syn(src, dst))
			k.Run()
		}
		for _, p := range escaped {
			b := g.Binding(p.Src)
			if b == nil || !b.isPeer(p.Dst) {
				t.Fatalf("policy %v leaked %s", pol, p)
			}
		}
	}
}
