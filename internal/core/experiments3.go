package core

import (
	"time"

	"potemkin/internal/gateway"
	"potemkin/internal/gre"
	"potemkin/internal/metrics"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/vmm"
	"potemkin/internal/worm"
)

// E9Result holds the gateway load-latency experiment (an extension
// beyond the paper's tables: the paper asserts its Click gateway keeps
// up with telescope feeds; this measures what happens as offered load
// approaches and passes the gateway's service capacity).
type E9Result struct{ Table *metrics.Table }

// RunE9 offers Poisson GRE-frame arrivals to a gateway modeled as a
// single-server queue with deterministic per-frame service time, and
// reports sojourn latency and loss across a load sweep. Below
// saturation latency stays near the service time; at the knee it
// explodes — the standard provisioning curve an operator sizes the
// gateway box against.
func RunE9(seed uint64, serviceTime time.Duration, loadFractions []float64, dur time.Duration) E9Result {
	tab := metrics.NewTable(
		"E9: Gateway sojourn latency vs offered load (service "+serviceTime.String()+", "+dur.String()+" runs)",
		"offered_load", "offered_pps", "mean_ms", "p95_ms", "p99_ms", "dropped_pct")
	capacity := 1.0 / serviceTime.Seconds()

	for _, frac := range loadFractions {
		k := sim.NewKernel(seed)
		fb := &nullBackend{k: k}
		gcfg := gateway.DefaultConfig()
		gcfg.IdleTimeout = 0
		gcfg.DetectThreshold = 0
		g := gateway.New(k, gcfg, fb)

		// Pre-warm a binding so service work is the steady-state path.
		g.HandleInbound(k.Now(), netsim.TCPSyn(1, gcfg.Space.Nth(0), 1, 445, 1))
		k.Run()

		var lat metrics.Histogram
		station := &netsim.Station{
			K:          k,
			Service:    serviceTime,
			QueueLimit: 4096,
		}
		stamps := make(map[*netsim.Packet]sim.Time)
		station.Serve = func(now sim.Time, pkt *netsim.Packet) {
			lat.Observe(float64(now.Sub(stamps[pkt])) / float64(time.Millisecond))
			delete(stamps, pkt)
			g.HandleGREFrame(now, pkt.Payload)
		}

		rate := capacity * frac
		r := k.Stream("arrivals")
		tun := gre.NewTunnel(netsim.MustParseAddr("1.1.1.1"), netsim.MustParseAddr("2.2.2.2"), 7)
		inner := netsim.TCPSyn(netsim.MustParseAddr("6.6.6.6"), gcfg.Space.Nth(0), 999, 445, 1)
		var gen func(now sim.Time)
		gen = func(now sim.Time) {
			outer := tun.Wrap(inner)
			stamps[outer] = now
			if !station.Arrive(outer) {
				delete(stamps, outer)
			}
			k.After(time.Duration(r.Exp(1e9/rate)), gen)
		}
		k.After(0, gen)
		k.RunUntil(sim.Start.Add(dur))
		g.Close()

		dropPct := 100 * float64(station.Stats.Dropped) / float64(station.Stats.Arrivals)
		tab.AddRow(pct(frac), rate, lat.Mean(), lat.Quantile(0.95), lat.Quantile(0.99), dropPct)
	}
	return E9Result{Table: tab}
}

func pct(f float64) string { return ftoa(f*100) + "%" }

// E10Arm is one honeyfarm-response configuration.
type E10Arm struct {
	Name string
	// TelescopeBits sizes the monitored space; 0 means no honeyfarm
	// (control arm, no response ever fires).
	TelescopeBits int
	// ReactionDelay is capture → countermeasure-deployed lag (signature
	// generation, validation, rollout start).
	ReactionDelay time.Duration
}

// StandardE10Arms is the default sweep.
func StandardE10Arms() []E10Arm {
	return []E10Arm{
		{Name: "no-response"},
		{Name: "/16 + 1h reaction", TelescopeBits: 16, ReactionDelay: time.Hour},
		{Name: "/16 + 10m reaction", TelescopeBits: 16, ReactionDelay: 10 * time.Minute},
		{Name: "/8 + 10m reaction", TelescopeBits: 8, ReactionDelay: 10 * time.Minute},
		{Name: "/8 + 1m reaction", TelescopeBits: 8, ReactionDelay: time.Minute},
	}
}

// E10Result holds the response experiment outputs.
type E10Result struct {
	Table  *metrics.Table
	Curves []*metrics.Series
}

// captureOverhead is the measured capture pipeline latency on top of
// the first telescope hit (clone ≈ 0.5 s + infection + detection; E5
// measures first capture ≈ 0.6 s after outbreak contact).
const captureOverhead = time.Second

// RunE10 quantifies why honeyfarms exist: the earlier a live capture,
// the earlier a countermeasure deploys, the smaller the epidemic. Each
// arm runs the same outbreak; the honeyfarm arm fires StartResponse at
// first-telescope-hit + captureOverhead + reaction delay, immunizing
// the remaining susceptibles at patchRate. (The capture pipeline's
// ~1 s overhead is taken from E5's measurement rather than re-simulating
// the farm, which keeps multi-hour epidemics tractable; the quantity
// under study is the telescope/reaction timing, which dominates by
// orders of magnitude.)
func RunE10(seed uint64, arms []E10Arm, dur time.Duration, patchRate float64) E10Result {
	res := E10Result{Table: metrics.NewTable(
		"E10: Epidemic outcome vs honeyfarm-enabled response ("+dur.String()+", patch rate "+ftoa(patchRate*100)+"%/s)",
		"arm", "capture_s", "response_s", "final_infected", "immunized")}

	type armResult struct {
		curve      *metrics.Series
		captureAt  float64
		responseAt float64
		infected   int
		immunized  int
	}
	results := make([]armResult, len(arms))
	ForEach(len(arms), func(i int) {
		arm := arms[i]
		e := e10Epidemic(seed, arm.TelescopeBits)
		end := sim.Start.Add(dur)

		captureAt, responseAt := -1.0, -1.0
		// Once a second the operator looks for a telescope hit in the
		// state just before that second's step. The response deploys
		// captureOverhead + ReactionDelay after the first hit, and not
		// before the hit is seen: then it follows that second's step.
		for now := sim.Start.Add(time.Second); arm.TelescopeBits > 0 && now <= end; now = now.Add(time.Second) {
			e.RunUntil(now - 1)
			st := e.Stats()
			if !st.SeenTelescope {
				continue
			}
			captureAt = st.FirstTelescopeHit.Add(captureOverhead).Seconds()
			deployAt := st.FirstTelescopeHit.Add(captureOverhead + arm.ReactionDelay)
			if deployAt <= now {
				deployAt = now
				e.RunUntil(now)
			} else if deployAt <= end {
				e.RunUntil(deployAt - 1)
			}
			if deployAt <= end {
				responseAt = deployAt.Seconds()
				e.StartResponse(patchRate)
			}
			break
		}
		e.RunUntil(end)

		curve := e.Curve.Downsample(120)
		curve.Name = arm.Name
		results[i] = armResult{
			curve:      curve,
			captureAt:  captureAt,
			responseAt: responseAt,
			infected:   e.Infected(),
			immunized:  e.Immunized(),
		}
	})
	for i, arm := range arms {
		r := results[i]
		res.Curves = append(res.Curves, r.curve)
		capCell, respCell := any("n/a"), any("n/a")
		if r.captureAt >= 0 {
			capCell = r.captureAt
		}
		if r.responseAt >= 0 {
			respCell = r.responseAt
		}
		res.Table.AddRow(arm.Name, capCell, respCell, r.infected, r.immunized)
	}
	return res
}

// e10Epidemic is the outbreak every E10 arm runs, seen by a telescope
// of telescopeBits (none when 0).
func e10Epidemic(seed uint64, telescopeBits int) *worm.Epidemic {
	cfg := worm.DefaultConfig()
	cfg.Seed = seed
	cfg.Susceptible = 1 << 20
	cfg.InitialInfected = 10
	cfg.ScanRate = 30
	if telescopeBits > 0 {
		cfg.Telescope = netsim.Prefix{Base: netsim.MustParseAddr("10.0.0.0"), Bits: telescopeBits}
	}
	return worm.New(cfg)
}

// E2cResult holds the CPU-bound density table.
type E2cResult struct{ Table *metrics.Table }

// RunE2c reports the paper's second provisioning axis: how many
// *active* VMs one server's CPU sustains as a function of per-VM
// traffic. The table is the CPU model's analytic bound alone; no
// simulation runs.
func RunE2c(perVMRates []float64) E2cResult {
	m := vmm.DefaultCPUModel()
	tab := metrics.NewTable(
		"E2c: CPU-bound active-VM density (4 cores, "+m.PerPacket.String()+"/pkt)",
		"pkts_per_sec_per_vm", "max_active_vms", "memory_bound_16GiB")
	memBound := int((uint64(16<<30) - farmImageBytes()) / (1 << 20)) // per-VM ~1MiB overhead floor
	for _, rate := range perVMRates {
		tab.AddRow(rate, m.MaxActiveVMs(rate), memBound)
	}
	return E2cResult{Table: tab}
}

func farmImageBytes() uint64 { return 8192 * 4096 }
