package analysis

import (
	"testing"
	"time"

	"potemkin/internal/farm"
	"potemkin/internal/gateway"
	"potemkin/internal/guest"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
)

// newIncidentFarm runs a contained multi-stage outbreak with the event
// log attached and returns the live reflection count for
// cross-checking.
func newIncidentFarm(t *testing.T, sink gateway.EventSink) (*farm.Farm, uint64) {
	t.Helper()
	k := sim.NewKernel(17)
	fc := farm.DefaultConfig()
	fc.Servers = 4
	fc.Image = farm.ImageSpec{Name: "winxp", NumPages: 8192, ResidentPages: 2048, DiskBlocks: 256, Seed: 42}
	fc.Profile = guest.WindowsXP()
	gc := gateway.DefaultConfig()
	gc.Policy = gateway.PolicyInternalReflect
	gc.IdleTimeout = 0
	gc.DetectThreshold = 5
	gc.ReflectionLimit = 32
	gc.EventSink = sink
	fc.PickTarget = func(r *sim.RNG) netsim.Addr {
		for {
			a := netsim.Addr(r.Uint64n(1 << 32))
			if !gc.Space.Contains(a) && a != 0 {
				return a
			}
		}
	}
	f, err := farm.New(k, fc)
	if err != nil {
		t.Fatal(err)
	}
	g := gateway.New(k, gc, f)
	f.SetGateway(g)

	exploit := netsim.TCPSyn(netsim.MustParseAddr("200.1.2.3"), gc.Space.Nth(99), 31337, 445, 1)
	exploit.Flags |= netsim.FlagPSH
	exploit.Payload = fc.Profile.ExploitPayload(0)
	g.HandleInbound(sim.Start, exploit)
	k.RunUntil(sim.Start.Add(15 * time.Second))
	g.Close()
	return f, g.Stats().OutReflected
}

func TestIncidentChainDepthMatchesGuests(t *testing.T) {
	var events []gateway.Event
	f, _ := newIncidentFarm(t, func(ev gateway.Event) { events = append(events, ev) })

	// Reconstruct depth from the log and compare with ground truth
	// (guest generations) for every live infected VM.
	var buf = jsonl(events...)
	rep, err := Analyze(buf)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	f.EachInstance(func(in *guest.Instance) {
		if !in.Infected {
			return
		}
		got := rep.ChainDepth[in.IP.String()]
		if got != in.Generation {
			t.Errorf("%s: log depth %d != guest generation %d", in.IP, got, in.Generation)
		}
		checked++
	})
	if checked < 3 {
		t.Errorf("only %d infected VMs to check", checked)
	}
}
