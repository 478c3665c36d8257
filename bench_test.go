package potemkin

// Benchmark harness: one bench (or bench family) per paper artifact
// E1–E8, plus ablation benches for the design choices DESIGN.md calls
// out. The E4 family measures real wall-clock per-packet cost of the
// gateway fast path on real wire bytes; the others wrap the experiment
// scenarios so `go test -bench` regenerates each artifact's workload at
// reduced scale and reports the simulation cost of running it.
//
// Full-size experiment outputs come from `go run ./cmd/benchtab`.

import (
	"sync/atomic"
	"testing"
	"time"

	"potemkin/internal/core"
	"potemkin/internal/farm"
	"potemkin/internal/gateway"
	"potemkin/internal/gre"
	"potemkin/internal/guest"
	"potemkin/internal/ingest"
	"potemkin/internal/mem"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/telescope"
	"potemkin/internal/vmm"
)

// --- E1: flash-clone latency breakdown ---

func BenchmarkE1FlashClone(b *testing.B) {
	k := sim.NewKernel(1)
	cfg := vmm.DefaultHostConfig("bench")
	cfg.MemoryBytes = 1 << 42
	h := vmm.NewHost(k, cfg)
	img := farm.DefaultImage()
	h.RegisterImage(img.Name, img.NumPages, img.ResidentPages, 0, img.Seed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm, err := h.FlashClone(img.Name, netsim.Addr(i+1), nil)
		if err != nil {
			b.Fatal(err)
		}
		k.Run()
		h.Destroy(vm.ID)
	}
}

func BenchmarkE1FullBootBaseline(b *testing.B) {
	k := sim.NewKernel(1)
	cfg := vmm.DefaultHostConfig("bench")
	cfg.MemoryBytes = 1 << 42
	h := vmm.NewHost(k, cfg)
	img := farm.DefaultImage()
	h.RegisterImage(img.Name, img.NumPages, img.ResidentPages, 0, img.Seed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm, err := h.FullBoot(img.Name, netsim.Addr(i+1), nil)
		if err != nil {
			b.Fatal(err)
		}
		k.Run()
		h.Destroy(vm.ID)
	}
}

// --- E2: delta virtualization ---

// BenchmarkE2DeltaVirt measures clone + guest-dirty workload cost under
// CoW sharing.
func BenchmarkE2DeltaVirt(b *testing.B) {
	benchE2(b, false)
}

// BenchmarkE2FullCopyBaseline is the same workload with full-copy VMs.
func BenchmarkE2FullCopyBaseline(b *testing.B) {
	benchE2(b, true)
}

// benchE2 clones a VM, writes 100 single bytes at random across its
// resident set and destroys it, b.N times, without running the kernel.
// Its allocations (3 a VM, 234 B, for delta virtualization) are the
// harness's, not the fault path's, which allocates nothing
// (TestCloneBurstDestroyAllocs): a VM destroyed mid-clone goes back to
// its host only when its clone-completion event fires, which here never
// happens, so every VM is a fresh VM from vmm.newVM (2 allocations: the
// struct and its bound completion event) and a fresh kernel event
// (Kernel.At, 1).
func benchE2(b *testing.B, fullCopy bool) {
	k := sim.NewKernel(1)
	cfg := vmm.DefaultHostConfig("bench")
	cfg.MemoryBytes = 1 << 42
	h := vmm.NewHost(k, cfg)
	img := farm.DefaultImage()
	h.RegisterImage(img.Name, img.NumPages, img.ResidentPages, 0, img.Seed)
	r := sim.NewRNG(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var vm *vmm.VM
		var err error
		if fullCopy {
			vm, err = h.FullBoot(img.Name, netsim.Addr(i+1), nil)
		} else {
			vm, err = h.FlashClone(img.Name, netsim.Addr(i+1), nil)
		}
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 100; j++ {
			vm.WriteMemory(uint64(r.Intn(int(img.ResidentPages))), r.Intn(4088), []byte{byte(j)})
		}
		h.Destroy(vm.ID)
	}
	b.ReportMetric(float64(h.Store().Stats().CowCopies)/float64(b.N), "cow-copies/vm")
}

// --- E3/E7: telescope multiplexing and churn ---

func BenchmarkE3Multiplexing(b *testing.B) {
	cfg := telescope.DefaultGenConfig()
	cfg.Duration = 30 * time.Second
	cfg.Rate = 100
	trace, err := telescope.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.RunE3(uint64(i+1), trace, cfg.Space, []time.Duration{2 * time.Second})
	}
	b.ReportMetric(float64(len(trace)), "trace-pkts/op")
}

func BenchmarkE7Churn(b *testing.B) {
	cfg := telescope.DefaultGenConfig()
	cfg.Duration = 30 * time.Second
	cfg.Rate = 100
	trace, err := telescope.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.RunE7(uint64(i+1), trace, cfg.Space, []time.Duration{2 * time.Second}, 2.0)
	}
}

// --- E4: gateway fast path (real bytes, real time) ---

func BenchmarkE4GatewayWarmPath(b *testing.B) {
	w := core.NewE4Workload(1, 4096, 65536, 1.0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Step()
	}
}

func BenchmarkE4GatewayMixed(b *testing.B) {
	w := core.NewE4Workload(1, 4096, 65536, 0.9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Step()
	}
}

// BenchmarkE4GatewayShardedParallel models the paper's gateway scaling
// story: the monitored space partitions cleanly across gateway
// instances (bindings never span shards), so throughput scales with
// cores. Each parallel worker drives its own gateway shard.
func BenchmarkE4GatewayShardedParallel(b *testing.B) {
	var shardSeq atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		w := core.NewE4Workload(shardSeq.Add(1), 1024, 16384, 1.0)
		for pb.Next() {
			w.Step()
		}
	})
}

func BenchmarkE4GREDecap(b *testing.B) {
	inner := netsim.TCPSyn(1, 2, 3, 445, 5).Marshal()
	frame := gre.Encap(&gre.Header{HasKey: true, HasSequence: true, Key: 9}, inner)
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := gre.Decap(frame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4WireParse(b *testing.B) {
	pkt := netsim.TCPSyn(1, 2, 3, 445, 5)
	pkt.Payload = []byte("probe payload bytes")
	buf := pkt.Marshal()
	b.SetBytes(int64(len(buf)))
	var p netsim.Packet
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4WireMarshal(b *testing.B) {
	pkt := netsim.TCPSyn(1, 2, 3, 445, 5)
	pkt.Payload = []byte("probe payload bytes")
	buf := make([]byte, pkt.WireLen())
	b.SetBytes(int64(pkt.WireLen()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt.MarshalInto(buf)
	}
}

// --- E5: containment ---

func BenchmarkE5Containment(b *testing.B) {
	arms := []core.E5Arm{
		{Name: "drop-all", Policy: gateway.PolicyDropAll},
		{Name: "internal-reflect", Policy: gateway.PolicyInternalReflect},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.RunE5(uint64(i+1), arms, 30*time.Second)
	}
}

// --- E6: detection time ---

func BenchmarkE6Detection(b *testing.B) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.RunE6(uint64(i+1), []int{8, 16}, []float64{100}, 1)
	}
}

// --- E8: internal reflection ---

func BenchmarkE8Reflection(b *testing.B) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.RunE8(uint64(i+1), 10*time.Second)
	}
}

// --- E9: gateway load-latency (extension) ---

func BenchmarkE9LoadLatency(b *testing.B) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.RunE9(uint64(i+1), 100*time.Microsecond, []float64{0.5, 1.1}, 2*time.Second)
	}
}

// --- E10: honeyfarm-enabled response (extension) ---

func BenchmarkE10Response(b *testing.B) {
	arms := []core.E10Arm{
		{Name: "control"},
		{Name: "/8-fast", TelescopeBits: 8, ReactionDelay: time.Minute},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.RunE10(uint64(i+1), arms, 30*time.Minute, 0.005)
	}
}

// --- Ablations (DESIGN.md "design choices worth ablating") ---

// Content-hash sharing on the private-page allocation path: what the
// extra hashing costs and what it saves when guests write similar
// content.
func BenchmarkAblationAllocNoShare(b *testing.B) {
	benchAlloc(b, false)
}

func BenchmarkAblationAllocContentShare(b *testing.B) {
	benchAlloc(b, true)
}

func benchAlloc(b *testing.B, share bool) {
	s := mem.NewStore()
	s.ShareContent = share
	page := make([]byte, mem.PageSize)
	for i := range page {
		page[i] = byte(i)
	}
	var ids []mem.FrameID
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		page[0] = byte(i % 16) // 16 distinct contents: dedup hits 15/16
		ids = append(ids, s.AllocData(page))
		if len(ids) == 1024 {
			b.StopTimer()
			for _, id := range ids {
				s.DecRef(id)
			}
			ids = ids[:0]
			b.StartTimer()
		}
	}
	b.ReportMetric(float64(s.Stats().DedupHits)/float64(b.N), "dedup-hit-rate")
}

// Binding recycle policy: one scrub pass over a 10k-binding table where
// nothing expires (the steady-state cost the recycling timer pays).
func BenchmarkAblationScrub(b *testing.B) {
	k := sim.NewKernel(1)
	backend := &instantBackend{k: k}
	cfg := gateway.DefaultConfig()
	cfg.IdleTimeout = time.Hour
	g := gateway.New(k, cfg, backend)
	for i := 0; i < 10000; i++ {
		g.HandleInbound(k.Now(), netsim.TCPSyn(netsim.Addr(i+1), cfg.Space.Nth(uint64(i)), 1, 445, 1))
	}
	// RunFor, not Run: the scrubber ticker re-arms forever.
	k.RunFor(time.Second)
	now := k.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Scrub(now)
	}
	b.StopTimer()
	if g.NumBindings() != 10000 {
		b.Fatalf("scrub recycled %d bindings", 10000-g.NumBindings())
	}
	g.Close()
}

type instantBackend struct{ k *sim.Kernel }

type inertVM struct{}

func (inertVM) Deliver(sim.Time, *netsim.Packet) {}
func (inertVM) Destroy(sim.Time)                 {}

func (ib *instantBackend) RequestVM(_ sim.Time, _ netsim.Addr, _ gateway.SpawnHint, ready func(gateway.VMRef, error)) {
	ib.k.After(0, func(sim.Time) { ready(inertVM{}, nil) })
}

// Guest fidelity path: full packet handling through a live guest.
func BenchmarkGuestHandlePacket(b *testing.B) {
	k := sim.NewKernel(1)
	h := vmm.NewHost(k, vmm.DefaultHostConfig("bench"))
	h.RegisterImage("winxp", 8192, 1024, 128, 11)
	vm, err := h.FlashClone("winxp", 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	k.Run()
	in := guest.New(k, vm, guest.WindowsXP(), func(*netsim.Packet) {}, nil, guest.Hooks{})
	probe := netsim.TCPSyn(2, 1, 1000, 445, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.HandlePacket(k.Now(), probe)
	}
}

// End-to-end facade: probe -> clone -> reply, the library's hot loop.
func BenchmarkFacadeProbeLifecycle(b *testing.B) {
	hf := MustNew(Options{Seed: 1, IdleTimeout: -1, Servers: 64})
	defer hf.Close()
	space := netsim.MustParsePrefix("10.5.0.0/16")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := space.Nth(uint64(i) % space.Size())
		hf.InjectProbe("203.0.113.9", dst.String(), 445)
		hf.RunFor(600 * time.Millisecond)
	}
}

// --- E11: closed-loop wire ingest ---

// BenchmarkE11WireIngest measures the full wire path end to end: a
// sender GRE-encapsulates SYN probes over a real loopback UDP socket,
// the listener decapsulates them, and the wire server drives them
// through the whole honeyfarm simulation (clone, deliver, reply). ns/op is the
// end-to-end per-packet cost; the sender is flow-controlled so the
// number excludes drops (lossless transport, like the determinism
// test).
func BenchmarkE11WireIngest(b *testing.B) {
	hf := MustNew(Options{Seed: 1, Servers: 64, Wire: &WireOptions{Addr: "127.0.0.1:0"}})
	defer hf.Close()
	srv, err := hf.StartWire()
	if err != nil {
		b.Fatal(err)
	}
	s, err := ingest.DialWire(srv.Addr().String(), 1, true)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	space := netsim.MustParsePrefix("10.5.0.0/16")

	b.ResetTimer()
	go func() {
		var pkt netsim.Packet
		for i := 0; i < b.N; i++ {
			pkt = netsim.Packet{
				Src:   netsim.Addr(0x01000001 + uint32(i)%8192),
				Dst:   space.Nth(uint64(i) % 1024),
				Proto: netsim.ProtoTCP, TTL: 116,
				SrcPort: uint16(1024 + i%60000), DstPort: 445,
				Flags: netsim.FlagSYN, Window: 65535,
			}
			// 10 us virtual spacing: a 100k pps feed.
			if err := s.SendPacket(sim.Time(i)*10000, &pkt); err != nil {
				b.Error(err)
				break
			}
			// The window is against what the farm has consumed: the
			// listener never blocks, so only that bounds its queue.
			for s.Sent-srv.Stats().Ingest.Delivered > 1024 {
				time.Sleep(20 * time.Microsecond)
			}
		}
		deadline := time.Now().Add(30 * time.Second)
		for srv.Stats().Ingest.Received < s.Sent && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		srv.Stop()
	}()
	ws, err := srv.Serve(WithEpilogue(0))
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if ws.Ingest.Dropped != 0 || ws.Injected != b.N {
		b.Fatalf("lossy run: injected %d of %d, stats %+v", ws.Injected, b.N, ws.Ingest)
	}
}

// --- E12: parallel shard engine speedup ---

// benchShardReplay replays an E11-style telescope feed through the
// 4-shard engine, with the epochs either threaded (one goroutine per
// shard) or single-threaded (the determinism oracle). The two modes do
// identical simulation work — the parallel/sequential ns/op ratio is
// the multicore speedup. On a 1-core machine the ratio degrades to
// barrier overhead; 4+ cores are needed for the ≥2x the paper-scale
// replay shows. Farm construction and teardown are excluded from the
// timed region: the benchmark measures replay, and the threaded mode's
// per-run worker-goroutine setup would otherwise skew the allocs/op
// comparison the alloc gate depends on.
func benchShardReplay(b *testing.B, threaded bool) {
	gcfg := telescope.DefaultGenConfig()
	gcfg.Space = netsim.MustParsePrefix("10.5.0.0/16")
	gcfg.Duration = 2 * time.Second
	gcfg.Rate = 1000
	gcfg.Seed = 1
	recs, err := telescope.Generate(gcfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		hf := MustNew(Options{
			Seed:          1,
			Parallel:      true,
			GatewayShards: 4,
			Policy:        InternalReflect,
			IdleTimeout:   time.Second,
		})
		if !threaded {
			hf.Internals().Engine.SetSequential(true)
		}
		b.StartTimer()
		if _, err := hf.Replay(SliceSource(recs)); err != nil {
			b.Fatal(err)
		}
		hf.RunFor(time.Second)
		b.StopTimer()
		hf.Close()
		b.StartTimer()
	}
}

func BenchmarkShardReplaySequential(b *testing.B) { benchShardReplay(b, false) }
func BenchmarkShardReplayParallel(b *testing.B)   { benchShardReplay(b, true) }
