package guest

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
	"time"

	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/vmm"
)

// Tests for instance recycling: a stopped instance is reused by the next
// New on the same Instruments, but never while one of its kernel events
// is still queued, and the reused struct carries nothing over.

// recycleRig is a host whose guests share one Instruments.
type recycleRig struct {
	k      *sim.Kernel
	h      *vmm.VMHost
	shared *Instruments
	sent   int
}

func newRecycleRig(t *testing.T) *recycleRig {
	t.Helper()
	k := sim.NewKernel(7)
	h := vmm.NewHost(k, vmm.DefaultHostConfig("recycle"))
	h.RegisterImage("winxp", 8192, 1024, 128, 11)
	return &recycleRig{k: k, h: h, shared: &Instruments{}}
}

// guest clones a VM for ip, waits for it to come up and binds p to it.
func (r *recycleRig) guest(t *testing.T, ip netsim.Addr, p *Profile) *Instance {
	t.Helper()
	var vm *vmm.VM
	if _, err := r.h.FlashClone("winxp", ip, func(v *vmm.VM) { vm = v }); err != nil {
		t.Fatal(err)
	}
	for vm == nil && r.k.Step() {
	}
	if vm == nil {
		t.Fatal("clone never completed")
	}
	pick := func(rng *sim.RNG) netsim.Addr { return netsim.Addr(rng.Uint64n(1 << 32)) }
	return New(r.k, vm, p, func(*netsim.Packet) { r.sent++ }, pick, Hooks{Metrics: r.shared})
}

// TestStaleTimerNeverReachesNextTenant destroys a guest whose touch (or
// scan) timer is still queued and rebinds the address. The stopped
// instance must sit out until that timer has fired — as a no-op the
// kernel still counts — and only then serve the next guest, clean.
func TestStaleTimerNeverReachesNextTenant(t *testing.T) {
	slow := func() *Profile {
		p := WindowsXP()
		p.InitialBurstPages = 0
		p.TouchRatePerSec = 0
		p.ScanRatePerSec = 0
		return p
	}
	for name, arm := range map[string]func(*Instance, *Profile){
		"touch": func(in *Instance, p *Profile) { p.TouchRatePerSec = 0.001; in.Start() },
		"scan":  func(in *Instance, p *Profile) { p.ScanRatePerSec = 0.001; in.ForceInfect(1) },
	} {
		t.Run(name, func(t *testing.T) {
			r := newRecycleRig(t)
			ip := netsim.MustParseAddr("10.1.2.3")
			p1 := slow()
			p1.InfectionBurstPages = 0
			first := r.guest(t, ip, p1)
			arm(first, p1)
			if first.events != 1 {
				t.Fatalf("setup: %d events queued, want the one timer", first.events)
			}
			first.Stop()
			r.h.Destroy(first.VM.ID)
			if r.shared.free.Len() != 0 {
				t.Fatal("an instance with a timer in flight went on the free list")
			}

			// The same address again: the VM struct is the host's recycled
			// one, the instance must not be.
			second := r.guest(t, ip, slow())
			second.Start()
			if second == first {
				t.Fatal("the rebound address got the instance whose timer is still queued")
			}
			if second.VM != first.VM {
				t.Log("note: host did not reuse the VM struct; the stale timer's VM check is not exercised")
			}
			faults, sent, fired := r.h.Stats().CowFaults, r.sent, r.k.Fired()

			r.k.Run() // only the first tenant's timer is queued
			if got := r.k.Fired() - fired; got != 1 {
				t.Errorf("kernel fired %d events, want the 1 stale timer", got)
			}
			if r.h.Stats().CowFaults != faults || second.Stats().PagesDirty != 0 {
				t.Error("the stale timer dirtied a page")
			}
			if r.sent != sent || second.Stats().ScansOut != 0 {
				t.Error("the stale timer sent a packet")
			}
			if r.shared.free.Len() != 1 || r.shared.free.List[0] != first {
				t.Fatalf("after its last event the stopped instance is not free: %d on the list", r.shared.free.Len())
			}

			// Now it is reused, and as good as new.
			id := second.VM.ID // a stopped instance with no event queued lets go of its VM
			second.Stop()
			r.h.Destroy(id)
			third := r.guest(t, netsim.MustParseAddr("10.9.9.9"), WindowsXP())
			if third != second && third != first {
				t.Error("New allocated with two instances free")
			}
			if third.Infected || third.Generation != 0 || third.stopped || third.events != 0 ||
				third.Stats() != (Stats{}) || third.Conns() != 0 || third.IP != netsim.MustParseAddr("10.9.9.9") {
				t.Errorf("recycled instance carries its last guest's state: %+v", third)
			}
		})
	}
}

// TestRecycledInstanceMatchesFresh: an instance's behaviour is a
// function of (kernel seed, address, profile), not of what its struct
// did before — the RNG re-seeded in place draws what
// k.Stream("guest").Fork(ip) would, and a reused connection table
// answers like an empty one.
func TestRecycledInstanceMatchesFresh(t *testing.T) {
	ip := netsim.MustParseAddr("10.200.17.5")
	drive := func(r *recycleRig, in *Instance) (draws [4]uint64, st Stats) {
		in.Start()
		for i := 0; i < 300; i++ { // past the table's capacity: evictions too
			in.HandlePacket(r.k.Now(), netsim.TCPSyn(netsim.Addr(500+i), in.IP, uint16(3000+i), 445, 9))
		}
		for i := range draws {
			draws[i] = in.rng.Uint64()
		}
		return draws, in.Stats()
	}

	fresh := newRecycleRig(t)
	want, wantStats := drive(fresh, fresh.guest(t, ip, WindowsXP()))

	used := newRecycleRig(t)
	other := LinuxServer()
	other.TouchRatePerSec = 0
	prev := used.guest(t, netsim.MustParseAddr("10.3.3.3"), other)
	drive(used, prev)
	prev.ForceInfect(3)
	id := prev.VM.ID
	prev.Stop()
	used.h.Destroy(id)
	for used.k.Step() { // drain whatever the first tenant left queued
	}
	again := used.guest(t, ip, WindowsXP())
	if again != prev {
		t.Fatal("setup: instance not reused")
	}
	got, gotStats := drive(used, again)
	if got != want || gotStats != wantStats {
		t.Errorf("recycled instance diverged from a fresh one:\n draws %x vs %x\n stats %+v vs %+v", got, want, gotStats, wantStats)
	}

	// And the in-place seeding is the documented derivation.
	ref := fresh.k.Stream("guest").Fork(ip.String())
	var in Instance
	in.K, in.IP = fresh.k, ip
	in.seedRNG()
	for i := 0; i < 8; i++ {
		if a, b := in.rng.Uint64(), ref.Uint64(); a != b {
			t.Fatalf("draw %d: in-place seed gives %x, Stream(guest).Fork(ip) gives %x", i, a, b)
		}
	}
	if avg := testing.AllocsPerRun(100, in.seedRNG); avg != 0 {
		t.Errorf("seeding in place allocates %.0f objects, want 0", avg)
	}
}

// synFloodDigest is the first digest TestSynFloodSameTickDigest computed
// in this process; `go test -count=20` compares every later run to it.
var synFloodDigest uint64

// TestSynFloodSameTickDigest floods one guest with SYNs from distinct
// flows inside a single kernel tick, so every connection ties on
// lastActive and every insert past the table's capacity evicts. Which
// connection goes must not depend on map iteration: the survivors, in
// idle order, and the guest's counters digest to one value on every run
// (CI runs this -count=20).
func TestSynFloodSameTickDigest(t *testing.T) {
	digest := func() uint64 {
		r := newRig(t, WindowsXP(), Hooks{})
		for i := 0; i < 4*maxConns; i++ {
			r.deliver(netsim.TCPSyn(netsim.Addr(0x0b000000+i*7919), r.in.IP, uint16(1024+i), 445, uint32(i)))
		}
		// Retransmit every third SYN: survivors answer from their connection,
		// evicted flows open a new one (and evict in turn).
		for i := 0; i < 4*maxConns; i += 3 {
			r.deliver(netsim.TCPSyn(netsim.Addr(0x0b000000+i*7919), r.in.IP, uint16(1024+i), 445, uint32(i)))
		}
		h := fnv.New64a()
		put := func(v uint64) {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
		n := 0
		for h := r.in.conns.oldest; h != 0; h = r.in.conns.at(h).newer {
			c := r.in.conns.at(h)
			put(uint64(c.remote)<<16 | uint64(c.rport))
			put(uint64(c.iss))
			n++
		}
		if n != maxConns || r.in.Conns() != maxConns {
			t.Fatalf("idle list holds %d connections, table %d, want %d", n, r.in.Conns(), maxConns)
		}
		st := r.in.Stats()
		put(st.ConnsAccepted)
		put(st.RepliesOut)
		put(st.PacketsIn)
		for _, p := range r.out {
			put(uint64(p.Dst)<<32 | uint64(p.Seq))
		}
		return h.Sum64()
	}
	d := digest()
	if again := digest(); again != d {
		t.Fatalf("two same-tick SYN floods digest to %x and %x", d, again)
	}
	if synFloodDigest == 0 {
		synFloodDigest = d
	}
	if d != synFloodDigest {
		t.Fatalf("digest %x differs from this process's first run %x", d, synFloodDigest)
	}
}

// TestConnTableIdleOrder pins the list's contract: eviction takes the
// connection idle longest, activity rescues one, ties go by touch order.
func TestConnTableIdleOrder(t *testing.T) {
	r := newRig(t, WindowsXP(), Hooks{})
	syn := func(i int) *netsim.Packet {
		return netsim.TCPSyn(netsim.Addr(100+i), r.in.IP, uint16(2000+i), 445, 1)
	}
	for i := 0; i < maxConns; i++ {
		r.deliver(syn(i))
		if i == 1 {
			r.k.RunFor(time.Second)
		}
	}
	r.deliver(syn(0)) // flow 0 is now the most recently active
	r.deliver(syn(maxConns))
	r.deliver(syn(maxConns + 1))
	has := func(i int) bool { _, c := r.in.conns.lookup(serverKey(syn(i))); return c != nil }
	if !has(0) {
		t.Error("a connection that was just active was evicted")
	}
	if has(1) || has(2) {
		t.Error("the two connections idle longest survived two evictions")
	}
	if !has(3) || !has(maxConns) || !has(maxConns+1) {
		t.Error("eviction took a connection other than the oldest-idle")
	}
	if r.in.Conns() != maxConns {
		t.Errorf("Conns = %d, want %d", r.in.Conns(), maxConns)
	}
}
