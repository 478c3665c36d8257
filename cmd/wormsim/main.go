// Command wormsim runs an Internet-scale worm outbreak against the
// honeyfarm and reports detection and containment outcomes — the
// interactive version of experiments E5/E6.
//
// Usage:
//
//	wormsim [flags]
//
//	-pop N           vulnerable population (default 1048576)
//	-scanrate R      scans/second per infected host (default 100)
//	-initial N       initially infected hosts (default 100)
//	-strategy NAME   uniform|local-pref|hitlist|permutation
//	-policy NAME     none|open|drop-all|reflect-source|internal-reflect
//	-space CIDR      telescope space (default 10.5.0.0/16)
//	-duration D      epidemic length (default 10m)
//	-scancap R       aggregate scans/second cap, a bandwidth-limited worm (default 0 = none)
//	-seed N          simulation seed
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"potemkin/internal/core"
	"potemkin/internal/farm"
	"potemkin/internal/gateway"
	"potemkin/internal/guest"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/worm"
)

func main() {
	var (
		pop      = flag.Int("pop", 1<<20, "vulnerable population")
		scanrate = flag.Float64("scanrate", 100, "scans/sec per infected host")
		initial  = flag.Int("initial", 100, "initially infected hosts")
		strategy = flag.String("strategy", "uniform", "scan strategy: uniform|local-pref|hitlist|permutation")
		policy   = flag.String("policy", "internal-reflect", "containment policy (none = no honeyfarm)")
		space    = flag.String("space", "10.5.0.0/16", "telescope space")
		duration = flag.Duration("duration", 10*time.Minute, "epidemic duration")
		scanCap  = flag.Float64("scancap", 0, "aggregate scans/sec cap (bandwidth-limited worm; 0 = none)")
		seed     = flag.Uint64("seed", 1, "simulation seed")
	)
	flag.Parse()

	prefix, err := netsim.ParsePrefix(*space)
	if err != nil {
		fatalf("%v", err)
	}

	wcfg := worm.DefaultConfig()
	wcfg.Susceptible = *pop
	wcfg.InitialInfected = *initial
	wcfg.ScanRate = *scanrate
	wcfg.Telescope = prefix
	wcfg.Seed = *seed
	wcfg.AggregateScanCap = *scanCap
	wcfg.ExploitPayload = guest.WindowsXP().ExploitPayload(0)
	switch *strategy {
	case "uniform":
		wcfg.Strategy = worm.Uniform
	case "local-pref":
		wcfg.Strategy = worm.LocalPref
	case "hitlist":
		wcfg.Strategy = worm.Hitlist
	case "permutation":
		wcfg.Strategy = worm.Permutation
	default:
		fatalf("unknown strategy %q", *strategy)
	}

	// Without a honeyfarm the epidemic runs alone on a bare kernel; with
	// one it shares the clock of a one-shard engine's gateway and farm.
	var (
		e        *worm.Epidemic
		k        *sim.Kernel
		runUntil func(sim.Time)
		d        *core.ShardDomain // nil without a honeyfarm
		leaked   uint64
	)
	if *policy == "none" {
		k = sim.NewKernel(*seed)
		runUntil = k.RunUntil
	} else {
		var pol gateway.Policy
		switch *policy {
		case "open":
			pol = gateway.PolicyOpen
		case "drop-all":
			pol = gateway.PolicyDropAll
		case "reflect-source":
			pol = gateway.PolicyReflectSource
		case "internal-reflect":
			pol = gateway.PolicyInternalReflect
		default:
			fatalf("unknown policy %q", *policy)
		}
		fc := farm.DefaultConfig()
		fc.Servers = 8
		fc.Image = farm.ImageSpec{Name: "winxp", NumPages: 8192, ResidentPages: 2048, DiskBlocks: 256, Seed: 42}
		gc := gateway.DefaultConfig()
		gc.Space = prefix
		gc.Policy = pol
		gc.ReflectionLimit = 256
		eng, err := core.NewShardEngine(core.ShardEngineConfig{
			Shards: 1, Seed: *seed, Farm: fc, Gateway: gc,
			OnInfected: func(now sim.Time, in *guest.Instance) {
				fmt.Printf("  t=%-8v honeyfarm captured infection at %s (generation %d)\n",
					time.Duration(now).Truncate(time.Millisecond), in.IP, in.Generation)
			},
			OnEgress: func(_ sim.Time, pkt *netsim.Packet) {
				leaked++
				e.InjectLeak(pkt)
			},
		})
		if err != nil {
			fatalf("%v", err)
		}
		defer eng.Close()
		d = eng.Domains()[0]
		wcfg.Deliver = d.G.HandleInbound
		k, runUntil = d.K, eng.RunUntil
	}
	e = worm.New(k, wcfg)

	k.Every(time.Minute, func(now sim.Time) {
		line := fmt.Sprintf("t=%-6v infected=%-8d", time.Duration(now).Truncate(time.Second), e.Infected())
		if d != nil {
			line += fmt.Sprintf(" honeyfarm[vms=%d infected=%d leakedpkts=%d]",
				d.F.LiveVMs(), d.F.InfectedVMs(), leaked)
		}
		fmt.Println(line)
	})

	e.Start()
	runUntil(sim.Start.Add(*duration))
	e.Stop()

	st := e.Stats()
	fmt.Printf("\nepidemic after %v:\n", duration)
	fmt.Printf("  infected              %d / %d (%.1f%%)\n",
		st.Infected, *pop, 100*float64(st.Infected)/float64(*pop))
	fmt.Printf("  telescope hits        %d\n", st.TelescopeHits)
	if st.SeenTelescope {
		fmt.Printf("  first telescope hit   %v\n", time.Duration(st.FirstTelescopeHit).Truncate(time.Millisecond))
	} else {
		fmt.Printf("  first telescope hit   never\n")
	}
	if d != nil {
		gs := d.G.Stats()
		fmt.Printf("  honeyfarm VMs         %d live, %d infected\n", d.F.LiveVMs(), d.F.InfectedVMs())
		fmt.Printf("  leaked packets        %d (caused %d outside infections)\n", leaked, st.LeakInfections)
		fmt.Printf("  outbound dropped      %d\n", gs.OutDropped)
		fmt.Printf("  internal reflections  %d\n", gs.OutReflected)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wormsim: "+format+"\n", args...)
	os.Exit(1)
}
