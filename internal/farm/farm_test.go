package farm

import (
	"testing"
	"time"

	"potemkin/internal/gateway"
	"potemkin/internal/guest"
	"potemkin/internal/mem"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/vmm"
)

// testRig builds a small farm + gateway pair.
type testRig struct {
	k *sim.Kernel
	f *Farm
	g *gateway.Gateway
}

func newRig(t *testing.T, mutateFarm func(*Config), mutateGW func(*gateway.Config)) *testRig {
	t.Helper()
	k := sim.NewKernel(21)
	fc := DefaultConfig()
	fc.Servers = 2
	fc.HostConfig.MemoryBytes = 2 << 30
	fc.Image = ImageSpec{Name: "winxp", NumPages: 8192, ResidentPages: 2048, Seed: 42}
	if mutateFarm != nil {
		mutateFarm(&fc)
	}
	f, err := New(k, fc)
	if err != nil {
		t.Fatal(err)
	}
	gc := gateway.DefaultConfig()
	gc.IdleTimeout = 0
	if mutateGW != nil {
		mutateGW(&gc)
	}
	g := gateway.New(k, gc, f)
	f.SetGateway(g)
	return &testRig{k: k, f: f, g: g}
}

func probe(src, dst netsim.Addr) *netsim.Packet {
	return netsim.TCPSyn(src, dst, 40000, 445, 1)
}

var (
	scanner = netsim.MustParseAddr("200.7.7.7")
	victim  = netsim.MustParseAddr("10.5.1.2")
)

func TestProbeSpawnsVMAndGetsReply(t *testing.T) {
	var replies []*netsim.Packet
	r := newRig(t, nil, func(c *gateway.Config) {
		c.Policy = gateway.PolicyReflectSource
		c.ExternalOut = func(_ sim.Time, p *netsim.Packet) { replies = append(replies, p.Clone()) }
	})
	r.g.HandleInbound(r.k.Now(), probe(scanner, victim))
	r.k.RunFor(2 * time.Second)

	if r.f.LiveVMs() != 1 {
		t.Fatalf("live VMs = %d", r.f.LiveVMs())
	}
	if len(replies) != 1 {
		t.Fatalf("replies = %d, want SYN-ACK back to scanner", len(replies))
	}
	got := replies[0]
	if got.Src != victim || got.Dst != scanner {
		t.Errorf("reply %s", got)
	}
	if got.Flags != netsim.FlagSYN|netsim.FlagACK {
		t.Errorf("flags = %s", netsim.FlagString(got.Flags))
	}
}

func TestReplyLatencyIncludesCloneTime(t *testing.T) {
	var replyAt sim.Time
	r := newRig(t, nil, func(c *gateway.Config) {
		c.Policy = gateway.PolicyReflectSource
		c.ExternalOut = func(now sim.Time, _ *netsim.Packet) { replyAt = now }
	})
	r.g.HandleInbound(r.k.Now(), probe(scanner, victim))
	r.k.RunFor(2 * time.Second)
	// Flash clone budget ~0.5 s: the scanner sees a delayed SYN-ACK,
	// not silence.
	if replyAt < sim.Start.Add(300*time.Millisecond) || replyAt > sim.Start.Add(time.Second) {
		t.Errorf("reply at %v, want ~0.5s", replyAt)
	}
}

func TestSecondProbeFastPath(t *testing.T) {
	var replyTimes []sim.Time
	r := newRig(t, nil, func(c *gateway.Config) {
		c.Policy = gateway.PolicyReflectSource
		c.ExternalOut = func(now sim.Time, _ *netsim.Packet) { replyTimes = append(replyTimes, now) }
	})
	r.g.HandleInbound(r.k.Now(), probe(scanner, victim))
	r.k.RunFor(2 * time.Second)
	t1 := r.k.Now()
	r.g.HandleInbound(r.k.Now(), probe(scanner, victim))
	r.k.RunFor(2 * time.Second)
	if len(replyTimes) != 2 {
		t.Fatalf("replies = %d", len(replyTimes))
	}
	// Second reply only pays the uplink latency, not a clone.
	if d := replyTimes[1].Sub(t1); d > 10*time.Millisecond {
		t.Errorf("second reply took %v", d)
	}
}

func TestVMsShareMemoryAcrossFarm(t *testing.T) {
	r := newRig(t, nil, nil)
	for i := 0; i < 40; i++ {
		r.g.HandleInbound(r.k.Now(), probe(scanner+netsim.Addr(i), victim+netsim.Addr(i)))
	}
	r.k.RunFor(2 * time.Second)
	if r.f.LiveVMs() != 40 {
		t.Fatalf("live = %d", r.f.LiveVMs())
	}
	// Memory: 2 servers × image (2048 pages ≈ 8 MiB) + per-VM overhead
	// + small private footprints. Full copies would need 40 × 8 MiB.
	perVM := uint64(0)
	for _, h := range r.f.Hosts() {
		perVM += h.MemoryInUse()
	}
	fullCopy := uint64(40) * 2048 * 4096
	if perVM >= fullCopy {
		t.Errorf("farm memory %d not below full-copy %d", perVM, fullCopy)
	}
	if err := r.f.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestPlacementSpreadsLoad(t *testing.T) {
	r := newRig(t, nil, nil)
	for i := 0; i < 20; i++ {
		r.g.HandleInbound(r.k.Now(), probe(scanner, victim+netsim.Addr(i)))
	}
	r.k.RunFor(2 * time.Second)
	a, b := r.f.Hosts()[0].NumVMs(), r.f.Hosts()[1].NumVMs()
	if a == 0 || b == 0 {
		t.Errorf("least-loaded placement left a server empty: %d/%d", a, b)
	}
	if diff := a - b; diff < -2 || diff > 2 {
		t.Errorf("imbalance: %d vs %d", a, b)
	}
}

func TestFarmFullFailsSpawn(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.Servers = 1
		c.HostConfig.MemoryBytes = 16 << 20 // tiny: image 8 MiB + ~8 VMs
	}, nil)
	for i := 0; i < 50; i++ {
		r.g.HandleInbound(r.k.Now(), probe(scanner, victim+netsim.Addr(i)))
	}
	r.k.RunFor(2 * time.Second)
	if r.f.Stats().SpawnFailures == 0 {
		t.Error("no spawn failures on a full farm")
	}
	if r.g.Stats().SpawnFailures == 0 {
		t.Error("gateway did not observe failures")
	}
	if r.f.LiveVMs() >= 50 {
		t.Errorf("live = %d, expected capacity limit", r.f.LiveVMs())
	}
}

func TestRecycleFreesCapacity(t *testing.T) {
	r := newRig(t, nil, nil)
	for i := 0; i < 10; i++ {
		r.g.HandleInbound(r.k.Now(), probe(scanner, victim+netsim.Addr(i)))
	}
	r.k.RunFor(2 * time.Second)
	if r.f.LiveVMs() != 10 {
		t.Fatalf("live = %d", r.f.LiveVMs())
	}
	r.g.RecycleAll(r.k.Now())
	if r.f.LiveVMs() != 0 {
		t.Errorf("live after recycle = %d", r.f.LiveVMs())
	}
	if r.f.Stats().Reclaims != 10 {
		t.Errorf("reclaims = %d", r.f.Stats().Reclaims)
	}
	if err := r.f.CheckInvariants(); err != nil {
		t.Error(err)
	}
	// Capacity is reusable.
	r.g.HandleInbound(r.k.Now(), probe(scanner, victim))
	r.k.RunFor(2 * time.Second)
	if r.f.LiveVMs() != 1 {
		t.Errorf("respawn failed: live = %d", r.f.LiveVMs())
	}
}

func TestEndToEndInfectionDetection(t *testing.T) {
	var infectedAt sim.Time
	var detectedAddr netsim.Addr
	r := newRig(t, func(c *Config) {
		c.OnInfected = func(now sim.Time, in *guest.Instance) { infectedAt = now }
	}, func(c *gateway.Config) {
		c.Policy = gateway.PolicyDropAll
		c.DetectThreshold = 5
		c.OnDetected = func(_ sim.Time, a netsim.Addr, _ int) { detectedAddr = a }
	})
	// Deliver the exploit.
	exploit := probe(scanner, victim)
	exploit.Payload = guest.WindowsXP().ExploitPayload(0)
	r.g.HandleInbound(r.k.Now(), exploit)
	r.k.RunFor(5 * time.Second)

	if infectedAt == 0 {
		t.Fatal("guest never infected")
	}
	if r.f.InfectedVMs() != 1 {
		t.Errorf("infected VMs = %d", r.f.InfectedVMs())
	}
	// The infected guest scans; the gateway's detector flags it.
	if detectedAddr != victim {
		t.Errorf("detected = %s, want %s", detectedAddr, victim)
	}
	// Containment: nothing escaped (drop-all, no ExternalOut set).
	if r.g.Stats().OutDropped == 0 {
		t.Error("no outbound drops recorded while worm scanned")
	}
}

func TestInternalReflectionSpreadsInsideFarm(t *testing.T) {
	r := newRig(t, nil, func(c *gateway.Config) {
		c.Policy = gateway.PolicyInternalReflect
		c.DetectThreshold = 0
		c.ReflectionLimit = 48 // bound the contained epidemic's size
	})
	exploit := probe(scanner, victim)
	exploit.Payload = guest.WindowsXP().ExploitPayload(0)
	r.g.HandleInbound(r.k.Now(), exploit)
	r.k.RunFor(12 * time.Second)

	// The worm's scans were reflected to new honeyfarm VMs, some of
	// which got infected in turn: a contained epidemic.
	if r.f.InfectedVMs() < 2 {
		t.Errorf("infected VMs = %d, want chain", r.f.InfectedVMs())
	}
	if r.g.Stats().OutReflected == 0 {
		t.Error("no reflections")
	}
	// Chain depth: someone is at generation >= 2.
	maxGen := 0
	r.f.EachInstance(func(in *guest.Instance) {
		if in.Generation > maxGen {
			maxGen = in.Generation
		}
	})
	if maxGen < 2 {
		t.Errorf("max generation = %d, want >= 2", maxGen)
	}
	if err := r.f.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestFullBootBaselineSlow(t *testing.T) {
	var replyAt sim.Time
	r := newRig(t, func(c *Config) { c.FullBoot = true }, func(c *gateway.Config) {
		c.Policy = gateway.PolicyReflectSource
		c.ExternalOut = func(now sim.Time, _ *netsim.Packet) { replyAt = now }
	})
	r.g.HandleInbound(r.k.Now(), probe(scanner, victim))
	r.k.RunFor(60 * time.Second)
	if replyAt < sim.Start.Add(10*time.Second) {
		t.Errorf("full-boot reply at %v, want tens of seconds", replyAt)
	}
}

func TestServersNeeded(t *testing.T) {
	const MiB = 1 << 20
	cases := []struct {
		peak  int
		perVM uint64
		image uint64
		mem   uint64
		want  int
	}{
		{0, 2 * MiB, 32 * MiB, 16384 * MiB, 0},
		{100, 2 * MiB, 32 * MiB, 16384 * MiB, 1},
		{65536, 2 * MiB, 32 * MiB, 16384 * MiB, 9},
		{10, 2 * MiB, 32 * MiB, 16 * MiB, -1}, // image does not fit
	}
	for _, c := range cases {
		if got := ServersNeeded(c.peak, c.perVM, c.image, c.mem); got != c.want {
			t.Errorf("ServersNeeded(%d,%d,%d,%d) = %d, want %d",
				c.peak, c.perVM, c.image, c.mem, got, c.want)
		}
	}
}

func TestInstanceLookup(t *testing.T) {
	r := newRig(t, nil, nil)
	r.g.HandleInbound(r.k.Now(), probe(scanner, victim))
	r.k.RunFor(2 * time.Second)
	if in := r.f.Instance(victim); in == nil || in.IP != victim {
		t.Error("Instance lookup failed")
	}
	if in := r.f.Instance(victim + 1); in != nil {
		t.Error("phantom instance")
	}
	n := 0
	r.f.EachInstance(func(*guest.Instance) { n++ })
	if n != 1 {
		t.Errorf("EachInstance visited %d", n)
	}
}

func TestGuestWorkloadRunsOnFarmVMs(t *testing.T) {
	r := newRig(t, nil, nil)
	r.g.HandleInbound(r.k.Now(), probe(scanner, victim))
	r.k.RunFor(30 * time.Second)
	fv := r.f.byAddr[victim]
	if fv == nil {
		t.Fatal("no VM")
	}
	if fv.VM.Mem.PrivatePages() == 0 {
		t.Error("guest workload dirtied no memory")
	}
	if fv.VM.Mem.PrivatePages()*mem.PageSize > 8<<20 {
		t.Errorf("private footprint of %d pages suspiciously large", fv.VM.Mem.PrivatePages())
	}
}

func TestDefaultHostOverheadCounted(t *testing.T) {
	r := newRig(t, nil, nil)
	base := r.f.MemoryInUse()
	r.g.HandleInbound(r.k.Now(), probe(scanner, victim))
	r.k.RunFor(2 * time.Second)
	grew := r.f.MemoryInUse() - base
	if grew < vmm.PerVMOverheadBytes {
		t.Errorf("memory grew %d, less than per-VM overhead", grew)
	}
}

// egressFunc adapts a function to gateway.Egress.
type egressFunc func(now sim.Time, pkt *netsim.Packet) gateway.Disposition

func (fn egressFunc) HandleOutbound(now sim.Time, pkt *netsim.Packet) gateway.Disposition {
	return fn(now, pkt)
}

func TestFarmBehindShardedGateway(t *testing.T) {
	k := sim.NewKernel(21)
	fc := DefaultConfig()
	fc.Servers = 2
	fc.HostConfig.MemoryBytes = 2 << 30
	fc.Image = ImageSpec{Name: "winxp", NumPages: 8192, ResidentPages: 2048, Seed: 42}
	f, err := New(k, fc)
	if err != nil {
		t.Fatal(err)
	}
	gc := gateway.DefaultConfig()
	gc.IdleTimeout = 0
	gc.Policy = gateway.PolicyInternalReflect
	gc.DetectThreshold = 0
	gc.ReflectionLimit = 16
	// Four gateways over one farm, partitioned by address index through
	// the shard hooks; cross-shard traffic re-injects at the owner.
	shards := make([]*gateway.Gateway, 4)
	owner := func(a netsim.Addr) *gateway.Gateway {
		return shards[gc.Space.Index(a)%uint64(len(shards))]
	}
	inbound := func(now sim.Time, pkt *netsim.Packet) { owner(pkt.Dst).HandleInbound(now, pkt) }
	for i := range shards {
		g := gateway.New(k, gc, f)
		g.SetShardHooks(func(a netsim.Addr) bool { return owner(a) == g }, inbound)
		shards[i] = g
	}
	f.SetGateway(egressFunc(func(now sim.Time, pkt *netsim.Packet) gateway.Disposition {
		return owner(pkt.Src).HandleOutbound(now, pkt)
	}))

	exploit := probe(scanner, victim)
	exploit.Payload = guest.WindowsXP().ExploitPayload(0)
	inbound(k.Now(), exploit)
	k.RunFor(8 * time.Second)

	if f.InfectedVMs() < 2 {
		t.Errorf("infected = %d, want a contained chain", f.InfectedVMs())
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	bindings := 0
	for _, g := range shards {
		bindings += g.NumBindings()
		g.Close()
	}
	if bindings != f.LiveVMs() {
		t.Errorf("bindings %d != live VMs %d", bindings, f.LiveVMs())
	}
}

func TestPrepareSnapshotImages(t *testing.T) {
	r := newRig(t, nil, nil)
	if err := r.f.PrepareSnapshotImages("winxp-settled", 30*time.Second); err != nil {
		t.Fatal(err)
	}
	// Reference VMs are gone; the farm now clones from the snapshot.
	if r.f.LiveVMs() != 0 {
		t.Fatalf("reference VMs leaked: %d", r.f.LiveVMs())
	}
	if r.f.Cfg.Image.Name != "winxp-settled" {
		t.Errorf("image name = %q", r.f.Cfg.Image.Name)
	}
	start := r.k.Now()
	r.g.HandleInbound(r.k.Now(), probe(scanner, victim))
	r.k.RunFor(2 * time.Second)
	if r.f.LiveVMs() != 1 {
		t.Fatalf("clone from snapshot failed: live = %d", r.f.LiveVMs())
	}
	// It was a flash clone (sub-second), not a boot.
	fv := r.f.byAddr[victim]
	if lat := fv.VM.ReadyAt.Sub(start); lat > time.Second {
		t.Errorf("clone from snapshot took %v", lat)
	}
	// The snapshot contains the warmed-up guest's dirtied pages (the
	// settled working set), visible as image content beyond what the
	// synthetic image had: cloning it costs no private pages.
	if fv.VM.Mem.PrivatePages()*mem.PageSize > 1<<20 {
		t.Errorf("snapshot clone started with %d private pages", fv.VM.Mem.PrivatePages())
	}
	if err := r.f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Preparing twice after traffic is rejected.
	if err := r.f.PrepareSnapshotImages("again", time.Second); err == nil {
		t.Error("re-prepare after traffic accepted")
	}
}

func TestFarmConfigValidation(t *testing.T) {
	k := sim.NewKernel(1)
	for _, mutate := range []func(*Config){
		func(c *Config) { c.Servers = 0 },
		func(c *Config) { c.Profile = nil },
	} {
		cfg := DefaultConfig()
		mutate(&cfg)
		if f, err := New(k, cfg); err == nil || f != nil {
			t.Errorf("bad config accepted: farm=%v err=%v", f, err)
		}
	}
	_ = vmm.DefaultHostConfig // keep import
}
