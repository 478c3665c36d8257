package farm

import (
	"testing"
	"time"

	"potemkin/internal/gateway"
	"potemkin/internal/mem"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
)

// TestRandomTrafficInvariants storms the full gateway+farm stack with
// random traffic (probes, exploits, garbage, recycling races) and
// checks the global invariants afterward: frame refcounts consistent,
// binding count bounded, no VM leaks, byte accounting sane.
func TestRandomTrafficInvariants(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		seed := seed
		k := sim.NewKernel(seed)
		fc := DefaultConfig()
		fc.Servers = 2
		fc.HostConfig.MemoryBytes = 512 << 20 // small enough to hit capacity
		fc.Image = ImageSpec{Name: "winxp", NumPages: 8192, ResidentPages: 2048, Seed: 42}
		f, err := New(k, fc)
		if err != nil {
			t.Fatal(err)
		}
		gc := gateway.DefaultConfig()
		gc.Policy = gateway.PolicyInternalReflect
		gc.IdleTimeout = 3 * time.Second
		// Infected VMs scan forever and so never go idle; the lifetime
		// cap is what actually drains them.
		gc.MaxLifetime = 20 * time.Second
		gc.ReflectionLimit = 32
		gc.ScanFilter = 20
		g := gateway.New(k, gc, f)
		f.SetGateway(g)

		r := sim.NewRNG(seed * 77)
		exploit := fc.Profile.ExploitPayload(0)
		for i := 0; i < 3000; i++ {
			dst := gc.Space.Nth(r.Uint64n(gc.Space.Size()) % 512) // concentrate on 512 addrs
			src := netsim.Addr(r.Uint64n(1<<32) | 1)
			var pkt *netsim.Packet
			switch r.Intn(5) {
			case 0: // plain SYN
				pkt = netsim.TCPSyn(src, dst, uint16(1024+r.Intn(60000)), 445, uint32(i))
			case 1: // exploit
				pkt = netsim.TCPSyn(src, dst, uint16(1024+r.Intn(60000)), 445, uint32(i))
				pkt.Flags |= netsim.FlagPSH
				pkt.Payload = exploit
			case 2: // UDP
				pkt = netsim.UDPDatagram(src, dst, 1434, 1434, []byte{4, 1})
			case 3: // ICMP
				pkt = netsim.ICMPEcho(src, dst, true)
			default: // stray ACK
				pkt = netsim.TCPSyn(src, dst, 1000, 80, 5)
				pkt.Flags = netsim.FlagACK
			}
			g.HandleInbound(k.Now(), pkt)
			k.RunFor(time.Duration(r.Intn(40)) * time.Millisecond)
		}
		k.RunFor(time.Second)

		if err := f.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Every live VM is reachable through a binding: a VM without a
		// binding would never be recycled (a leak).
		if f.LiveVMs() > g.NumBindings() {
			t.Errorf("seed %d: %d VMs but only %d bindings", seed, f.LiveVMs(), g.NumBindings())
		}
		// Drain. Under internal reflection a contained epidemic is
		// self-sustaining (infected VMs keep reinfecting reflected
		// VMs), so model the operator response: flip to drop-all, then
		// let the lifetime cap age everything out.
		g.Cfg.Policy = gateway.PolicyDropAll
		k.RunFor(2 * time.Minute)
		g.Close()
		if pinned := g.NumBindings(); pinned != 0 {
			t.Errorf("seed %d: %d bindings survived idle-out", seed, pinned)
		}
		if f.LiveVMs() != 0 {
			t.Errorf("seed %d: %d VMs leaked", seed, f.LiveVMs())
		}
		if err := f.CheckInvariants(); err != nil {
			t.Fatalf("seed %d after drain: %v", seed, err)
		}
		// All memory except images + zero frames reclaimed.
		for _, h := range f.Hosts() {
			if got := h.Store().ModeledBytes() / mem.PageSize; got > 2048+1+64 {
				t.Errorf("seed %d: %s holds %d frames after drain", seed, h.Cfg.Name, got)
			}
		}
	}
}
