package core

import (
	"math"
	"strconv"
	"time"

	"potemkin/internal/farm"
	"potemkin/internal/gateway"
	"potemkin/internal/gre"
	"potemkin/internal/guest"
	"potemkin/internal/metrics"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/telescope"
	"potemkin/internal/vmm"
	"potemkin/internal/worm"
)

// E4Workload prepares the gateway fast-path workload for throughput
// measurement: a gateway with pre-warmed bindings and a mixed batch of
// pre-marshalled GRE frames. The actual timing is done by testing.B
// (bench_test.go) or cmd/benchtab's wall-clock loop, both of which call
// Step in a tight loop.
type E4Workload struct {
	G      *gateway.Gateway
	K      *sim.Kernel
	Frames [][]byte
	next   int
}

// NewE4Workload builds the workload: warm bindings for `warm` addresses
// (so the measured path is lookup+deliver, not cloning), and a frame
// batch with hitRatio of frames addressed to warm bindings.
func NewE4Workload(seed uint64, warm, frames int, hitRatio float64) *E4Workload {
	k := sim.NewKernel(seed)
	fb := &nullBackend{k: k}
	cfg := gateway.DefaultConfig()
	cfg.IdleTimeout = 0
	g := gateway.New(k, cfg, fb)
	r := sim.NewRNG(seed)

	for i := 0; i < warm; i++ {
		g.HandleInbound(k.Now(), netsim.TCPSyn(0xc0000000+netsim.Addr(i), cfg.Space.Nth(uint64(i)), 1, 445, 1))
	}
	k.Run() // all bindings active

	w := &E4Workload{G: g, K: k}
	tun := gre.NewTunnel(netsim.MustParseAddr("1.1.1.1"), netsim.MustParseAddr("2.2.2.2"), 7)
	for i := 0; i < frames; i++ {
		var dstIdx uint64
		if r.Float64() < hitRatio {
			dstIdx = uint64(r.Intn(warm))
		} else {
			dstIdx = uint64(warm) + r.Uint64n(cfg.Space.Size()-uint64(warm))
		}
		inner := netsim.TCPSyn(netsim.Addr(r.Uint64n(1<<31)+1), cfg.Space.Nth(dstIdx),
			uint16(1024+r.Intn(60000)), 445, uint32(i))
		outer := tun.Wrap(inner)
		w.Frames = append(w.Frames, outer.Payload)
	}
	return w
}

// Step processes one frame; call in a timing loop.
func (w *E4Workload) Step() {
	w.G.HandleGREFrame(w.K.Now(), w.Frames[w.next])
	w.next++
	if w.next == len(w.Frames) {
		w.next = 0
	}
}

// nullBackend satisfies spawn requests instantly with inert VMs.
type nullBackend struct{ k *sim.Kernel }

type nullVM struct{}

func (nullVM) Deliver(sim.Time, *netsim.Packet) {}
func (nullVM) Destroy(sim.Time)                 {}

func (nb *nullBackend) RequestVM(_ sim.Time, _ netsim.Addr, _ gateway.SpawnHint, ready func(gateway.VMRef, error)) {
	nb.k.After(0, func(sim.Time) { ready(nullVM{}, nil) })
}

// E5Result holds the containment experiment outputs.
type E5Result struct {
	Table  *metrics.Table
	Curves []*metrics.Series // infected-over-time per arm
}

// E5Arm names one containment configuration under test.
type E5Arm struct {
	Name   string
	Policy gateway.Policy
	// NoHoneyfarm runs the pure epidemic (control).
	NoHoneyfarm bool
}

// StandardE5Arms is the sweep the containment figure uses.
func StandardE5Arms() []E5Arm {
	return []E5Arm{
		{Name: "no-honeyfarm", NoHoneyfarm: true},
		{Name: "open", Policy: gateway.PolicyOpen},
		{Name: "drop-all", Policy: gateway.PolicyDropAll},
		{Name: "reflect-source", Policy: gateway.PolicyReflectSource},
		{Name: "internal-reflect", Policy: gateway.PolicyInternalReflect},
	}
}

// RunE5 couples a worm epidemic to the honeyfarm under each containment
// policy and reports spread, leakage, and detection (Figure E5).
//
// The shape that must hold: an *open* honeyfarm leaks exploit traffic
// and measurably accelerates the epidemic over the no-honeyfarm
// control, while every containment policy tracks the control exactly
// (zero leak infections) — containment costs nothing in detection time.
func RunE5(seed uint64, arms []E5Arm, dur time.Duration) E5Result {
	res := E5Result{Table: metrics.NewTable(
		"E5: Worm spread vs containment policy ("+dur.String()+" epidemic)",
		"arm", "final_infected", "leaked_pkts", "leak_infections", "first_capture_s", "honeyfarm_infected")}

	results := make([]e5ArmResult, len(arms))
	ForEach(len(arms), func(i int) {
		results[i] = runE5Arm(seed, arms[i], dur)
	})
	for i, arm := range arms {
		r := results[i]
		res.Curves = append(res.Curves, r.curve)
		captureCell := any("n/a")
		if r.firstCapture >= 0 {
			captureCell = r.firstCapture
		} else if !arm.NoHoneyfarm {
			captureCell = "none"
		}
		res.Table.AddRow(arm.Name, r.st.Infected, r.leakedPkts, r.st.LeakInfections, captureCell, r.hfInfected)
	}
	return res
}

// e5ArmResult carries one containment arm's outputs to the merge step.
type e5ArmResult struct {
	st           worm.Stats
	curve        *metrics.Series
	leakedPkts   uint64
	reflected    uint64 // the gateway's internal reflections
	firstCapture float64
	hfInfected   int
}

// runE5Arm couples one epidemic to one honeyfarm configuration. All
// state is arm-local, so arms run concurrently under ForEach.
func runE5Arm(seed uint64, arm E5Arm, dur time.Duration) e5ArmResult {
	wcfg := worm.DefaultConfig()
	wcfg.Seed = seed
	// A Blaster-scale outbreak already underway: hot enough that the
	// telescope sees it within seconds even on short runs.
	wcfg.InitialInfected = 500
	wcfg.ScanRate = 100
	wcfg.ExploitPayload = guest.WindowsXP().ExploitPayload(0)
	wcfg.MaxDeliverPerStep = 8

	r := e5ArmResult{firstCapture: -1}
	e := worm.New(wcfg)
	end := sim.Start.Add(dur)
	if arm.NoHoneyfarm {
		e.RunUntil(end)
	} else {
		fc := farm.DefaultConfig()
		// A deliberately small farm: two 256 MiB servers bound the
		// honeypot population (≈500 VMs), which keeps long epidemics
		// tractable and exercises admission control the way a real
		// under-provisioned farm would.
		fc.Servers = 2
		fc.HostConfig.MemoryBytes = 256 << 20
		fc.Image = farm.ImageSpec{Name: "winxp", NumPages: 8192, ResidentPages: 2048, Seed: 42}
		fc.Profile = guest.WindowsXP()
		gc := gateway.DefaultConfig()
		gc.Space = wcfg.Telescope
		gc.Policy = arm.Policy
		gc.IdleTimeout = 60 * time.Second
		gc.MaxLifetime = 120 * time.Second // churn even busy (infected) VMs
		gc.ReflectionLimit = 256
		eng, d := oneShard(ShardEngineConfig{
			Seed: seed, Farm: fc, Gateway: gc,
			OnInfected: func(now sim.Time, _ *guest.Instance) {
				if r.firstCapture < 0 {
					r.firstCapture = now.Seconds()
				}
			},
			OnEgress: func(_ sim.Time, pkt *netsim.Packet) {
				r.leakedPkts++
				e.InjectLeak(pkt)
			},
		})
		_, _ = eng.Replay(e.Source(end), nil, 0) // an epidemic's source returns no error but io.EOF
		eng.RunUntil(end)
		eng.Close()
		r.hfInfected = d.F.InfectedVMs()
		r.reflected = d.G.Stats().OutReflected
	}

	r.st = e.Stats()
	r.curve = e.Curve.Downsample(120)
	r.curve.Name = arm.Name
	return r
}

// E6Result holds detection-time measurements.
type E6Result struct{ Table *metrics.Table }

// RunE6 measures time-to-first-capture as a function of monitored
// address-space size and worm scan rate (Figure E6). Detection time
// should scale inversely with both.
func RunE6(seed uint64, prefixBits []int, scanRates []float64, trials int) E6Result {
	tab := metrics.NewTable(
		"E6: Time to first telescope hit vs monitored space and scan rate (s, mean of "+strconv.Itoa(trials)+" trials)",
		append([]string{"prefix"}, func() []string {
			var cols []string
			for _, r := range scanRates {
				cols = append(cols, "scan_"+ftoa(r)+"ps")
			}
			return cols
		}()...)...)

	// Flatten the bits × rate × trial nest so every kernel run — not
	// just every cell — fans out under ForEach.
	type e6Trial struct {
		bits  int
		rate  float64
		trial int
		hit   bool
		hitAt float64
	}
	var runs []e6Trial
	for _, bits := range prefixBits {
		for _, rate := range scanRates {
			for trial := 0; trial < trials; trial++ {
				runs = append(runs, e6Trial{bits: bits, rate: rate, trial: trial})
			}
		}
	}
	ForEach(len(runs), func(i int) {
		r := &runs[i]
		cfg := worm.DefaultConfig()
		cfg.Seed = seed + uint64(r.trial)
		cfg.Telescope = netsim.Prefix{Base: netsim.MustParseAddr("10.0.0.0"), Bits: r.bits}
		cfg.InitialInfected = 10
		cfg.ScanRate = r.rate
		cfg.Susceptible = 1 << 20
		e := worm.New(cfg)
		e.RunUntil(sim.Start.Add(2 * time.Hour))
		if e.Stats().SeenTelescope {
			r.hit = true
			r.hitAt = e.Stats().FirstTelescopeHit.Seconds()
		}
	})
	next := 0
	for _, bits := range prefixBits {
		row := []any{"/" + strconv.Itoa(bits)}
		for range scanRates {
			sum, n := 0.0, 0
			for trial := 0; trial < trials; trial++ {
				if r := runs[next]; r.hit {
					sum += r.hitAt
					n++
				}
				next++
			}
			if n == 0 {
				row = append(row, "none")
			} else {
				row = append(row, sum/float64(n))
			}
		}
		tab.AddRow(row...)
	}
	return E6Result{Table: tab}
}

// E7Result holds binding churn and provisioning outputs.
type E7Result struct{ Table *metrics.Table }

// RunE7 derives the provisioning table (Table E7) from an E3-style
// replay: for each recycling timeout, how many physical servers cover
// the space at the E2-measured per-VM footprint.
func RunE7(seed uint64, trace []telescope.Record, space netsim.Prefix,
	timeouts []time.Duration, perVMFootprintMB float64) E7Result {
	e3 := RunE3(seed, trace, space, timeouts)
	tab := metrics.NewTable(
		"E7: Provisioning for "+space.String()+" at measured per-VM footprint",
		"idle_timeout", "peak_live_vms", "per_vm_MiB", "servers_16GiB")
	const MiB = 1 << 20
	imageBytes := uint64(farm.DefaultImage().ResidentPages * 4096)
	perVM := uint64(perVMFootprintMB*MiB) + vmm.PerVMOverheadBytes
	for _, timeout := range timeouts {
		peak := e3.PeakByTimeout[timeout]
		servers := farm.ServersNeeded(peak, perVM, imageBytes, 16<<30)
		tab.AddRow(labelTimeout(timeout), peak, float64(perVM)/MiB, servers)
	}
	return E7Result{Table: tab}
}

// E8Result holds the internal-reflection chain-depth outputs.
type E8Result struct {
	Table *metrics.Table
	// MaxDepth is the deepest infection generation observed with
	// reflection enabled.
	MaxDepth int
}

// RunE8 releases a multi-stage worm into the honeyfarm and compares
// what internal reflection captures against reflect-source-only
// containment (Figure E8): without reflection the second stage and
// onward infections are invisible; with it, whole chains are captured.
func RunE8(seed uint64, dur time.Duration) E8Result {
	res := E8Result{Table: metrics.NewTable(
		"E8: Multi-stage capture vs reflection ("+dur.String()+" run)",
		"policy", "vms_infected", "max_chain_depth", "reflections")}

	payloadServer := netsim.MustParseAddr("66.6.6.6")
	for _, pol := range []gateway.Policy{gateway.PolicyReflectSource, gateway.PolicyInternalReflect} {
		fc := farm.DefaultConfig()
		fc.Servers = 8
		fc.Image = farm.ImageSpec{Name: "winxp", NumPages: 8192, ResidentPages: 2048, Seed: 42}
		fc.Profile = guest.MultiStage(payloadServer)
		gc := gateway.DefaultConfig()
		gc.Policy = pol
		gc.IdleTimeout = 0
		gc.DetectThreshold = 0
		gc.ReflectionLimit = 96
		// The worm scans the Internet at large; at real scale the odds of
		// a random probe landing back inside one /16 are negligible, so
		// scan targets are strictly external. Propagation inside the farm
		// then happens only via internal reflection — the mechanism under
		// test.
		fc.PickTarget = func(r *sim.RNG) netsim.Addr {
			for {
				a := netsim.Addr(r.Uint64n(1 << 32))
				if !gc.Space.Contains(a) && a != 0 {
					return a
				}
			}
		}
		eng, d := oneShard(ShardEngineConfig{Seed: seed, Farm: fc, Gateway: gc})

		// Patient zero: the worm's first probe from outside.
		exploit := netsim.TCPSyn(netsim.MustParseAddr("200.1.2.3"), gc.Space.Nth(99), 31337, 445, 1)
		exploit.Flags |= netsim.FlagPSH
		exploit.Payload = fc.Profile.ExploitPayload(0)
		eng.Inject(exploit)
		eng.RunUntil(sim.Start.Add(dur))
		eng.Close()

		infected, maxDepth := 0, 0
		d.F.EachInstance(func(in *guest.Instance) {
			if in.Infected {
				infected++
				if in.Generation > maxDepth {
					maxDepth = in.Generation
				}
			}
		})
		st := d.G.Stats()
		if pol == gateway.PolicyInternalReflect {
			res.MaxDepth = maxDepth
		}
		res.Table.AddRow(pol.String(), infected, maxDepth, st.OutReflected)
	}
	return res
}

// ftoa renders f to one decimal place, dropping a trailing ".0".
func ftoa(f float64) string {
	return strconv.FormatFloat(math.Round(f*10)/10, 'f', -1, 64)
}

// StandardTrace generates the default /16 telescope trace shared by
// E3/E7.
func StandardTrace(seed uint64, dur time.Duration) []telescope.Record {
	cfg := telescope.DefaultGenConfig()
	cfg.Seed = seed
	cfg.Duration = dur
	recs, err := telescope.Generate(cfg)
	if err != nil {
		panic(err)
	}
	return recs
}

// StandardTimeouts is the recycling-policy sweep for E3/E7.
func StandardTimeouts() []time.Duration {
	return []time.Duration{500 * time.Millisecond, 5 * time.Second, 60 * time.Second, 300 * time.Second, 0}
}
