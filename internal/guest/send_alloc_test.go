package guest_test

import (
	"bytes"
	"testing"
	"time"

	"potemkin/internal/farm"
	"potemkin/internal/gateway"
	"potemkin/internal/guest"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
)

// egressFunc adapts a function to gateway.Egress.
type egressFunc func(now sim.Time, pkt *netsim.Packet) gateway.Disposition

func (fn egressFunc) HandleOutbound(now sim.Time, pkt *netsim.Packet) gateway.Disposition {
	return fn(now, pkt)
}

// TestInfectedGuestSendsAllocs is the allocation floor of what an
// infected guest says: on a warmed farm, a guest's TCP scans, UDP scans,
// C2 beacons and second-stage fetches cross the farm's uplink to the
// gateway allocating nothing. Each is built in the instance's own
// storage, its payload is the instance's or shared read-only bytes, and
// the link hop's copy — off the farm's free list — is the only one.
// The egress checks every packet arrives with the header and payload
// the guest has always sent.
func TestInfectedGuestSendsAllocs(t *testing.T) {
	k := sim.NewKernel(3)
	p := guest.WindowsXP()
	p.TouchRatePerSec = 0 // the sends alone: no page faults between them
	p.ScanRatePerSec = 0  // the test sends; the guest's own timers stay idle
	p.C2Server = netsim.MustParseAddr("203.0.113.9")
	p.BeaconPeriodMS = int(time.Hour / time.Millisecond)
	fc := farm.DefaultConfig()
	fc.Servers = 1
	fc.HostConfig.MemoryBytes = 1 << 30
	fc.Image = farm.ImageSpec{Name: "winxp", NumPages: 8192, ResidentPages: 2048, DiskBlocks: 512, Seed: 42}
	fc.Profile = p
	f, err := farm.New(k, fc)
	if err != nil {
		t.Fatal(err)
	}
	stage2 := netsim.MustParseAddr("198.51.100.7")
	exploit := p.ExploitPayload(2)
	counts := map[string]int{}
	f.SetGateway(egressFunc(func(_ sim.Time, pkt *netsim.Packet) gateway.Disposition {
		kind := ""
		switch {
		case pkt.Proto == netsim.ProtoUDP && bytes.Equal(pkt.Payload, exploit):
			kind = "udp scan"
		case pkt.Proto != netsim.ProtoTCP || pkt.Flags != netsim.FlagSYN|netsim.FlagPSH || pkt.Window != 65535:
		case pkt.Dst == p.C2Server && string(pkt.Payload) == "C2 beacon gen2":
			kind = "beacon"
		case pkt.Dst == stage2 && string(pkt.Payload) == "GET /stage2":
			kind = "stage-2 fetch"
		case bytes.Equal(pkt.Payload, exploit):
			kind = "tcp scan"
		}
		if kind == "" || pkt.TTL != 64 || !pkt.Ephemeral {
			t.Fatalf("unexpected packet on the uplink: %v ttl=%d ephemeral=%v payload=%q", pkt, pkt.TTL, pkt.Ephemeral, pkt.Payload)
		}
		counts[kind]++
		return gateway.DispDropped
	}))

	addr := netsim.MustParseAddr("10.5.1.2")
	f.RequestVM(k.Now(), addr, gateway.SpawnHint{}, func(gateway.VMRef, error) {})
	k.RunFor(5 * time.Second)
	in := f.Instance(addr)
	if in == nil {
		t.Fatal("no guest after the clone")
	}
	in.ForceInfect(2)

	const each = 8
	send := func() {
		for i := 0; i < each; i++ {
			p.ScanProto = netsim.ProtoTCP
			in.EmitScan()
			p.ScanProto = netsim.ProtoUDP
			in.EmitScan()
			in.EmitBeacon()
			in.FetchStage2(stage2)
		}
		k.RunFor(time.Millisecond) // every hop lands and goes back to the free list
	}
	const warm, measured = 3, 20
	for i := 0; i < warm; i++ {
		send() // warm the farm's hops and the kernel's queue
	}
	if avg := testing.AllocsPerRun(measured, send); avg != 0 {
		t.Errorf("%d sends of each kind allocate %.0f objects, want 0", each, avg)
	}
	for _, kind := range []string{"tcp scan", "udp scan", "beacon", "stage-2 fetch"} {
		// AllocsPerRun calls send once more, unmeasured, before it counts.
		if want := (warm + 1 + measured) * each; counts[kind] != want {
			t.Errorf("%d %ss reached the gateway, want %d", counts[kind], kind, want)
		}
	}
}
