// Containment: release the same multi-stage worm into honeyfarms
// running each containment policy and compare what leaks and what gets
// captured. Internal reflection is the punchline — it captures the
// whole infection chain (stage-2 fetch included) without leaking a
// byte.
//
//	go run ./examples/containment
package main

import (
	"fmt"
	"time"

	"potemkin/internal/core"
	"potemkin/internal/farm"
	"potemkin/internal/gateway"
	"potemkin/internal/guest"
	"potemkin/internal/metrics"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
)

func main() {
	tab := metrics.NewTable(
		"One worm, four policies (60s after first exploit)",
		"policy", "leaked_pkts", "vms_infected", "max_chain_depth", "stage2_captured")

	for _, pol := range []gateway.Policy{
		gateway.PolicyOpen,
		gateway.PolicyDropAll,
		gateway.PolicyReflectSource,
		gateway.PolicyInternalReflect,
	} {
		leaked, infected, depth, stage2 := run(pol)
		tab.AddRow(pol.String(), leaked, infected, depth, stage2)
	}
	fmt.Println(tab)
	fmt.Println(`Reading the table:
  open             leaks worm scans to the real network (the disaster case)
  drop-all         leaks nothing but also answers nothing — low fidelity
  reflect-source   replies reach the scanner, worm scans die — but the
                   second stage of the infection is never seen
  internal-reflect worm scans are redirected to fresh honeypot VMs: the
                   chain replays inside the farm, stage-2 fetch included,
                   and still nothing leaks`)
}

func run(pol gateway.Policy) (leaked uint64, infected, maxDepth, stage2 int) {
	payloadServer := netsim.MustParseAddr("66.6.6.6")

	fc := farm.DefaultConfig()
	fc.Servers = 4
	fc.Image = farm.ImageSpec{Name: "winxp", NumPages: 8192, ResidentPages: 2048, Seed: 42}
	fc.Profile = guest.MultiStage(payloadServer) // fetches stage 2 after compromise
	gc := gateway.DefaultConfig()
	gc.Policy = pol
	gc.IdleTimeout = 0
	gc.ReflectionLimit = 64
	// Worm targets are external (hitting your own /16 at random is a
	// one-in-65k event at Internet scale).
	fc.PickTarget = func(r *sim.RNG) netsim.Addr {
		for {
			a := netsim.Addr(r.Uint64n(1 << 32))
			if !gc.Space.Contains(a) && a != 0 {
				return a
			}
		}
	}
	eng, err := core.NewShardEngine(core.ShardEngineConfig{
		Shards: 1, Seed: 99, Farm: fc, Gateway: gc,
		OnInfected: func(_ sim.Time, in *guest.Instance) {
			infected++
			maxDepth = max(maxDepth, in.Generation)
		},
		OnEgress: func(_ sim.Time, pkt *netsim.Packet) {
			if len(pkt.Payload) > 0 { // exploit or stage-2 bytes leaving the farm
				leaked++
			}
		},
	})
	if err != nil {
		panic(err)
	}

	// Patient zero.
	exploit := netsim.TCPSyn(netsim.MustParseAddr("200.1.2.3"), gc.Space.Nth(99), 31337, 445, 1)
	exploit.Flags |= netsim.FlagPSH
	exploit.Payload = fc.Profile.ExploitPayload(0)
	eng.Inject(exploit)
	eng.RunUntil(sim.Start.Add(60 * time.Second))
	eng.Close()

	// Stage-2 fetches captured: reflected bindings created for the
	// payload server's address.
	if pol == gateway.PolicyInternalReflect {
		stage2 = int(eng.Totals().Gateway.OutReflected)
	}
	return leaked, infected, maxDepth, stage2
}
