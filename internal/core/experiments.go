// Package core holds ShardEngine, the engine every honeyfarm runs on,
// and the paper's experiments (E1–E10 in DESIGN.md) as reusable
// scenarios over the substrates. cmd/benchtab prints their tables; the
// repository-root benchmarks wrap them in testing.B; the examples
// demonstrate slices of them through the public API.
//
// A gateway in front of a farm is assembled in one place,
// NewShardDomain: the facade, the cluster worker and every experiment
// that simulates a honeyfarm (E3, E5, E7, E8, chaos) run on a
// ShardEngine and reach its layers through Domains(). Experiments of a
// single layer keep a bare kernel: E1 and E2 a VM host, E4 and E9 a
// gateway over an inert backend, E6, E10 and E5's control arm a worm
// alone.
//
// Each Run* function is deterministic given its parameters and returns
// metrics tables/series shaped like the corresponding paper artifact.
package core

import (
	"strconv"
	"time"

	"potemkin/internal/farm"
	"potemkin/internal/gateway"
	"potemkin/internal/guest"
	"potemkin/internal/metrics"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/telescope"
	"potemkin/internal/vmm"
)

// E1Result is the flash-cloning latency breakdown.
type E1Result struct {
	Table *metrics.Table
	// CloneMeanMs and BootMeanMs summarize the headline comparison.
	CloneMeanMs float64
	BootMeanMs  float64
}

// RunE1 measures the modeled per-step flash-clone latency over `clones`
// clones, against the full-boot baseline (Table E1).
func RunE1(seed uint64, clones int) E1Result {
	k := sim.NewKernel(seed)
	cfg := vmm.DefaultHostConfig("e1")
	cfg.MemoryBytes = 64 << 30
	h := vmm.NewHost(k, cfg)
	img := farm.DefaultImage()
	h.RegisterImage(img.Name, img.NumPages, img.ResidentPages, 0, img.Seed)

	for i := 0; i < clones; i++ {
		vm, err := h.FlashClone(img.Name, netsim.Addr(i+1), nil)
		if err != nil {
			panic(err)
		}
		k.Run()
		h.Destroy(vm.ID)
	}
	var boot metrics.Histogram
	for i := 0; i < clones; i++ {
		vm, err := h.FullBoot(img.Name, netsim.Addr(i+1), nil)
		if err != nil {
			panic(err)
		}
		start := k.Now()
		k.Run()
		boot.Observe(float64(k.Now().Sub(start)) / float64(time.Millisecond))
		h.Destroy(vm.ID)
	}

	tab := metrics.NewTable(
		"E1: Flash-clone latency breakdown (modeled ms, n="+strconv.Itoa(clones)+")",
		"step", "mean_ms", "p50_ms", "p95_ms", "share_pct")
	var total float64
	for s := vmm.CloneStep(0); s < vmm.NumCloneSteps; s++ {
		total += h.StepLatency[s].Mean()
	}
	for s := vmm.CloneStep(0); s < vmm.NumCloneSteps; s++ {
		hist := &h.StepLatency[s]
		tab.AddRow(s.String(), hist.Mean(), hist.Quantile(0.5), hist.Quantile(0.95),
			100*hist.Mean()/total)
	}
	tab.AddRow("TOTAL flash clone", h.CloneLatency.Mean(), h.CloneLatency.Quantile(0.5),
		h.CloneLatency.Quantile(0.95), 100.0)
	tab.AddRow("BASELINE full boot", boot.Mean(), boot.Quantile(0.5), boot.Quantile(0.95), "")
	tab.AddRow("speedup (x)", boot.Mean()/h.CloneLatency.Mean(), "", "", "")
	return E1Result{Table: tab, CloneMeanMs: h.CloneLatency.Mean(), BootMeanMs: boot.Mean()}
}

// E2Mode selects the memory-sharing configuration under test.
type E2Mode int

// E2 ablation arms.
const (
	E2Delta        E2Mode = iota // CoW sharing of image pages (the paper's mechanism)
	E2DeltaContent               // + inline content sharing of private pages
	E2DeltaKSM                   // + periodic share passes over diverged pages
	E2FullCopy                   // no sharing: full-boot every VM
	numE2Modes
)

// String names the mode.
func (m E2Mode) String() string {
	switch m {
	case E2Delta:
		return "delta"
	case E2DeltaContent:
		return "delta+content"
	case E2DeltaKSM:
		return "delta+ksm"
	case E2FullCopy:
		return "full-copy"
	default:
		return "unknown"
	}
}

// E2Result holds the delta-virtualization memory experiment outputs.
type E2Result struct {
	// Footprint: per-VM incremental memory (MiB) over time, one series
	// per mode.
	Footprint *metrics.Table
	// Density: VMs admitted before a server of each size rejects.
	Density *metrics.Table
	// MeanFootprintMB is the measured steady-state per-VM cost under
	// E2Delta, used by E7's provisioning arithmetic.
	MeanFootprintMB float64
}

// RunE2 measures per-VM memory growth under a realistic guest workload
// for each sharing mode, then fills servers to rejection (Figure/Table
// E2).
func RunE2(seed uint64, vms int, dur time.Duration) E2Result {
	img := farm.DefaultImage()
	foot := metrics.NewTable(
		"E2: Per-VM incremental memory under guest workload (MiB)",
		"t_seconds", "delta", "delta+content", "delta+ksm", "full-copy")

	type sample struct{ perVM [numE2Modes]float64 }
	steps := int(dur / (10 * time.Second))
	if steps < 1 {
		steps = 1
	}
	samples := make([]sample, steps+1)
	var meanDelta float64

	for _, mode := range []E2Mode{E2Delta, E2DeltaContent, E2DeltaKSM, E2FullCopy} {
		k := sim.NewKernel(seed)
		cfg := vmm.DefaultHostConfig("e2")
		cfg.MemoryBytes = 1 << 40 // measure footprint, not admission
		cfg.ShareContent = mode == E2DeltaContent
		h := vmm.NewHost(k, cfg)
		h.RegisterImage(img.Name, img.NumPages, img.ResidentPages, 0, img.Seed)
		if mode == E2DeltaKSM {
			defer h.StartSharePasses(20 * time.Second).Stop()
		}

		baseline := h.Store().ModeledBytes()
		var instances []*guest.Instance
		profile := guest.WindowsXP()
		for i := 0; i < vms; i++ {
			var vm *vmm.VM
			var err error
			if mode == E2FullCopy {
				vm, err = h.FullBoot(img.Name, netsim.Addr(i+1), nil)
			} else {
				vm, err = h.FlashClone(img.Name, netsim.Addr(i+1), nil)
			}
			if err != nil {
				panic(err)
			}
			in := guest.New(k, vm, profile, func(*netsim.Packet) {}, nil, guest.Hooks{})
			instances = append(instances, in)
		}
		k.RunFor(time.Second) // clones complete
		for _, in := range instances {
			in.Start()
		}
		for s := 0; s <= steps; s++ {
			perVM := float64(h.Store().ModeledBytes()-baseline) / float64(vms) / (1 << 20)
			samples[s].perVM[mode] = perVM
			if s < steps {
				k.RunFor(10 * time.Second)
			}
		}
		if mode == E2Delta {
			meanDelta = samples[steps].perVM[mode]
		}
		for _, in := range instances {
			in.Stop()
		}
	}
	for s := 0; s <= steps; s++ {
		foot.AddRow(float64(s*10), samples[s].perVM[E2Delta], samples[s].perVM[E2DeltaContent],
			samples[s].perVM[E2DeltaKSM], samples[s].perVM[E2FullCopy])
	}

	density := metrics.NewTable(
		"E2b: VMs admitted before server rejection (after "+dur.String()+" warmup workload)",
		"mode", "server_2GiB", "server_16GiB")
	for _, mode := range []E2Mode{E2Delta, E2FullCopy} {
		row := []any{mode.String()}
		for _, memBytes := range []uint64{2 << 30, 16 << 30} {
			k := sim.NewKernel(seed + 1)
			cfg := vmm.DefaultHostConfig("e2b")
			cfg.MemoryBytes = memBytes
			h := vmm.NewHost(k, cfg)
			h.RegisterImage(img.Name, img.NumPages, img.ResidentPages, 0, img.Seed)
			admitted := 0
			for {
				var err error
				if mode == E2FullCopy {
					_, err = h.FullBoot(img.Name, netsim.Addr(admitted+1), nil)
				} else {
					_, err = h.FlashClone(img.Name, netsim.Addr(admitted+1), nil)
				}
				if err != nil {
					break
				}
				admitted++
				if admitted >= 100000 {
					break
				}
			}
			row = append(row, admitted)
		}
		density.AddRow(row...)
	}
	return E2Result{Footprint: foot, Density: density, MeanFootprintMB: meanDelta}
}

// E3Result holds the VM-multiplexing experiment outputs.
type E3Result struct {
	// Table: one row per recycling timeout.
	Table *metrics.Table
	// Series: live-VM count over time, one per timeout.
	Series []*metrics.Series
	// Peak live VMs for the shortest timeout (used by E7).
	PeakByTimeout map[time.Duration]int
}

// RunE3 replays a telescope trace against the gateway+farm under a
// sweep of idle-recycling timeouts and reports how many concurrent VMs
// cover the address space (Figure E3). A timeout of 0 means "never
// recycle".
func RunE3(seed uint64, trace []telescope.Record, space netsim.Prefix, timeouts []time.Duration) E3Result {
	res := E3Result{
		Table: metrics.NewTable(
			"E3: Live VMs required to cover "+space.String()+" vs recycling timeout",
			"idle_timeout", "median_live", "p95_live", "peak_live", "bindings_created", "recycled"),
		PeakByTimeout: make(map[time.Duration]int),
	}
	var traceEnd sim.Time
	if len(trace) > 0 {
		traceEnd = trace[len(trace)-1].At
	}
	type armResult struct {
		series *metrics.Series
		st     gateway.Stats
	}
	results := make([]armResult, len(timeouts))
	ForEach(len(timeouts), func(i int) {
		series, st := runE3Arm(seed, trace, traceEnd, space, timeouts[i], 0)
		results[i] = armResult{series, st}
	})
	for i, timeout := range timeouts {
		series, st := results[i].series, results[i].st
		res.Table.AddRow(labelTimeout(timeout), series.Quantile(0.5), series.Quantile(0.95),
			st.PeakBindings, st.BindingsCreated, st.BindingsRecycled)
		res.Series = append(res.Series, series.Downsample(120))
		res.PeakByTimeout[timeout] = st.PeakBindings
	}
	return res
}

// runE3Arm replays trace against one gateway configuration and returns
// the live-binding series plus final gateway stats.
func runE3Arm(seed uint64, trace []telescope.Record, traceEnd sim.Time,
	space netsim.Prefix, timeout time.Duration, scanFilter int) (*metrics.Series, gateway.Stats) {
	fc := farm.DefaultConfig()
	fc.Servers = 64 // measure demand, not capacity
	fc.Image = farm.ImageSpec{Name: "winxp", NumPages: 32768, ResidentPages: 8192, Seed: 42}
	fc.Profile = quietProfile()
	gc := gateway.DefaultConfig()
	gc.Space = space
	gc.Policy = gateway.PolicyReflectSource
	gc.IdleTimeout = timeout
	gc.ScanFilter = scanFilter
	eng, d := oneShard(ShardEngineConfig{Seed: seed, Farm: fc, Gateway: gc})

	series := &metrics.Series{Name: labelTimeout(timeout)}
	d.K.Every(time.Second, func(now sim.Time) {
		series.Add(now.Seconds(), float64(d.G.NumBindings()))
	})

	_, _ = eng.Replay(&telescope.SliceSource{Recs: trace}, nil, 0) // a slice source never fails to read
	eng.RunUntil(traceEnd.Add(time.Second))
	eng.Close()
	return series, d.G.Stats()
}

// RunE3ScanFilter is the E3 scan-filter ablation: same trace, fixed
// recycling timeout, varying the redundant-scan shed threshold. The
// filter should cut VM churn substantially at zero cost to coverage of
// *new* scanners.
func RunE3ScanFilter(seed uint64, trace []telescope.Record, space netsim.Prefix,
	timeout time.Duration, filters []int) *metrics.Table {
	tab := metrics.NewTable(
		"E3b: Scan-filter ablation (idle timeout "+labelTimeout(timeout)+")",
		"scan_filter", "peak_live", "bindings_created", "filtered_pkts", "delivered")
	var traceEnd sim.Time
	if len(trace) > 0 {
		traceEnd = trace[len(trace)-1].At
	}
	results := make([]gateway.Stats, len(filters))
	ForEach(len(filters), func(i int) {
		_, results[i] = runE3Arm(seed, trace, traceEnd, space, timeout, filters[i])
	})
	for i, filt := range filters {
		label := "off"
		if filt > 0 {
			label = strconv.Itoa(filt)
		}
		st := results[i]
		tab.AddRow(label, st.PeakBindings, st.BindingsCreated, st.ScanFiltered, st.DeliveredToVM)
	}
	return tab
}

// quietProfile is the WindowsXP personality with the steady memory
// workload disabled: multiplexing experiments track binding counts over
// tens of thousands of VMs, where per-guest touch events would dominate
// simulation cost without changing the result.
func quietProfile() *guest.Profile {
	p := guest.WindowsXP()
	p.TouchRatePerSec = 0
	p.InitialBurstPages = 8
	return p
}

// oneShard builds the paper's shape — one gateway in front of one farm
// on one clock — as a one-domain engine, and returns it with its
// domain. Experiment configurations are fixed in code, so an error is a
// bug and panics.
func oneShard(cfg ShardEngineConfig) (*ShardEngine, *ShardDomain) {
	cfg.Shards = 1
	eng, err := NewShardEngine(cfg)
	if err != nil {
		panic(err)
	}
	return eng, eng.Domains()[0]
}

func labelTimeout(d time.Duration) string {
	if d == 0 {
		return "never"
	}
	return d.String()
}
