// Command benchtab regenerates every table and figure of the Potemkin
// reproduction (E1–E8 in DESIGN.md / EXPERIMENTS.md) as aligned text
// tables, optionally writing CSV series for plotting.
//
// Usage:
//
//	benchtab [-seed N] [-csv DIR] [-quick] [-parallel N] [e1 e2 ... e8 | all]
//
// With no experiment arguments, runs all of them. -quick shrinks every
// workload for a fast smoke run; the full-size run matches the
// parameters EXPERIMENTS.md reports. -parallel caps the worker
// goroutines the experiment sweeps fan independent arms across (0, the
// default, uses all cores; 1 forces sequential). The tables are
// byte-identical at every setting — each arm owns its deterministic
// sim kernel and results merge in input order — so -parallel trades
// wall-clock only.
//
// e12 (shard-engine scaling) and e13 (cluster scaling) must be
// requested explicitly: they report wall-clock, which is
// machine-dependent, so they are excluded from the byte-identical
// default set.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"potemkin/internal/cluster"
	"potemkin/internal/core"
	"potemkin/internal/farm"
	"potemkin/internal/fault"
	"potemkin/internal/gateway"
	"potemkin/internal/metrics"
	"potemkin/internal/telescope"
)

func main() {
	var (
		seed     = flag.Uint64("seed", 1, "simulation seed")
		csv      = flag.String("csv", "", "directory to write CSV series into")
		quick    = flag.Bool("quick", false, "shrink workloads for a fast smoke run")
		parallel = flag.Int("parallel", 0, "worker goroutines for experiment sweeps (0 = all cores, 1 = sequential)")
	)
	flag.Parse()
	core.SetParallelism(*parallel)

	args := flag.Args()
	if len(args) == 0 || (len(args) == 1 && args[0] == "all") {
		args = []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10"}
	}

	r := runner{seed: *seed, csvDir: *csv, quick: *quick}
	for _, a := range args {
		switch strings.ToLower(a) {
		case "e1":
			r.e1()
		case "e2":
			r.e2()
		case "e3":
			r.e3()
		case "e4":
			r.e4()
		case "e5":
			r.e5()
		case "e6":
			r.e6()
		case "e7":
			r.e7()
		case "e8":
			r.e8()
		case "e9":
			r.e9()
		case "e10":
			r.e10()
		case "e12":
			r.e12()
		case "e13":
			r.e13()
		default:
			fmt.Fprintf(os.Stderr, "benchtab: unknown experiment %q (want e1..e10, e12, e13, or all)\n", a)
			os.Exit(2)
		}
	}
}

type runner struct {
	seed   uint64
	csvDir string
	quick  bool

	trace      []telescope.Record
	footprint  float64
	haveTrace  bool
	haveE2Foot bool
}

func (r *runner) print(tabs ...*metrics.Table) {
	for _, t := range tabs {
		t.Render(os.Stdout)
		fmt.Println()
	}
}

func (r *runner) writeCSV(name string, tab *metrics.Table) {
	if r.csvDir == "" {
		return
	}
	if err := os.MkdirAll(r.csvDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
		os.Exit(1)
	}
	path := filepath.Join(r.csvDir, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := tab.WriteCSV(f); err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("  [csv] %s\n\n", path)
}

func (r *runner) standardTrace() []telescope.Record {
	if !r.haveTrace {
		dur := 10 * time.Minute
		if r.quick {
			dur = 2 * time.Minute
		}
		fmt.Printf("generating %v telescope trace for %s ...\n",
			dur, telescope.DefaultGenConfig().Space)
		r.trace = core.StandardTrace(r.seed, dur)
		st := telescope.Summarize(r.trace)
		fmt.Printf("  %d packets, %d sources, %d destinations, %.0f pps\n\n",
			st.Packets, st.UniqueSources, st.UniqueDests, st.RatePPS)
		r.haveTrace = true
	}
	return r.trace
}

func (r *runner) measuredFootprint() float64 {
	if !r.haveE2Foot {
		// Derive the per-VM footprint from a short E2 run.
		res := core.RunE2(r.seed, 10, 60*time.Second)
		r.footprint = res.MeanFootprintMB
		r.haveE2Foot = true
	}
	return r.footprint
}

func (r *runner) e1() {
	n := 200
	if r.quick {
		n = 20
	}
	res := core.RunE1(r.seed, n)
	r.print(res.Table)
	r.writeCSV("e1_clone_breakdown", res.Table)
}

func (r *runner) e2() {
	vms, dur := 50, 5*time.Minute
	if r.quick {
		vms, dur = 15, time.Minute
	}
	res := core.RunE2(r.seed, vms, dur)
	r.print(res.Footprint, res.Density)
	r.writeCSV("e2_footprint", res.Footprint)
	r.writeCSV("e2_density", res.Density)
	r.footprint = res.MeanFootprintMB
	r.haveE2Foot = true

	cpu := core.RunE2c([]float64{0.1, 1, 10, 100, 1000})
	r.print(cpu.Table)
	r.writeCSV("e2c_cpu_density", cpu.Table)
}

func (r *runner) e3() {
	trace := r.standardTrace()
	space := telescope.DefaultGenConfig().Space
	res := core.RunE3(r.seed, trace, space, core.StandardTimeouts())
	r.print(res.Table)
	r.writeCSV("e3_live_vms", metrics.SeriesTable("live VMs over time", res.Series...))

	abl := core.RunE3ScanFilter(r.seed, trace, space, 60*time.Second, []int{0, 3, 10})
	r.print(abl)
	r.writeCSV("e3b_scanfilter", abl)
}

func (r *runner) e4() {
	warm, frames, iters := 10000, 100000, 2_000_000
	if r.quick {
		warm, frames, iters = 1000, 10000, 200_000
	}
	fmt.Println("E4: Gateway fast-path throughput (real wall-clock, real bytes)")
	tab := metrics.NewTable("", "path", "ops", "ns_per_pkt", "pkts_per_sec")
	for _, tc := range []struct {
		name     string
		hitRatio float64
	}{
		{"warm-binding (GRE decap + parse + deliver)", 1.0},
		{"mixed 90% warm / 10% miss", 0.9},
	} {
		w := core.NewE4Workload(r.seed, warm, frames, tc.hitRatio)
		start := time.Now()
		for i := 0; i < iters; i++ {
			w.Step()
		}
		el := time.Since(start)
		nsPer := float64(el.Nanoseconds()) / float64(iters)
		tab.AddRow(tc.name, iters, nsPer, 1e9/nsPer)
	}
	r.print(tab)
	r.writeCSV("e4_gateway", tab)
}

func (r *runner) e5() {
	dur := 10 * time.Minute
	if r.quick {
		dur = 2 * time.Minute
	}
	res := core.RunE5(r.seed, core.StandardE5Arms(), dur)
	r.print(res.Table)
	r.writeCSV("e5_spread", metrics.SeriesTable("infected over time", res.Curves...))
}

func (r *runner) e6() {
	bits := []int{8, 12, 16, 20, 24}
	rates := []float64{10, 100, 1000}
	trials := 5
	if r.quick {
		bits = []int{8, 16, 24}
		trials = 2
	}
	res := core.RunE6(r.seed, bits, rates, trials)
	r.print(res.Table)
	r.writeCSV("e6_detection", res.Table)
}

func (r *runner) e7() {
	trace := r.standardTrace()
	res := core.RunE7(r.seed, trace, telescope.DefaultGenConfig().Space,
		core.StandardTimeouts(), r.measuredFootprint())
	r.print(res.Table)
	r.writeCSV("e7_provisioning", res.Table)
}

func (r *runner) e9() {
	dur := 20 * time.Second
	loads := []float64{0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 1.0, 1.1}
	if r.quick {
		dur = 5 * time.Second
		loads = []float64{0.3, 0.9, 1.1}
	}
	res := core.RunE9(r.seed, 100*time.Microsecond, loads, dur)
	r.print(res.Table)
	r.writeCSV("e9_load_latency", res.Table)
}

func (r *runner) e10() {
	dur := 2 * time.Hour
	if r.quick {
		dur = 45 * time.Minute
	}
	res := core.RunE10(r.seed, core.StandardE10Arms(), dur, 0.005)
	r.print(res.Table)
	r.writeCSV("e10_response", metrics.SeriesTable("infected over time", res.Curves...))
}

func (r *runner) e8() {
	dur := 60 * time.Second
	if r.quick {
		dur = 15 * time.Second
	}
	res := core.RunE8(r.seed, dur)
	r.print(res.Table)
	r.writeCSV("e8_reflection", res.Table)
}

// e12 measures the parallel shard engine: the same replay run with the
// epochs single-threaded (the determinism oracle) and threaded, at
// increasing shard counts. The speedup column is wall-clock, so unlike
// every other table it depends on the machine — on a single core it
// only shows the barrier overhead.
func (r *runner) e12() {
	dur, rate := 20*time.Second, 1000.0
	shardCounts := []int{2, 4, 8}
	if r.quick {
		dur = 5 * time.Second
		shardCounts = []int{2, 4}
	}
	gcfg := telescope.DefaultGenConfig()
	gcfg.Duration = dur
	gcfg.Rate = rate
	gcfg.Seed = r.seed
	recs, err := telescope.Generate(gcfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("E12: shard-engine scaling (%d packets over %v, wall-clock — machine-dependent)\n",
		len(recs), dur)
	tab := metrics.NewTable("", "shards", "seq_wall_ms", "par_wall_ms", "speedup", "bindings")

	run := func(shards int, threaded bool) (time.Duration, uint64) {
		gc := gateway.DefaultConfig()
		gc.IdleTimeout = 5 * time.Second
		fc := farm.DefaultConfig()
		if fc.Servers < shards {
			fc.Servers = shards
		}
		eng, err := core.NewShardEngine(core.ShardEngineConfig{
			Shards: shards, Parallel: true, Seed: r.seed, Gateway: gc, Farm: fc,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		eng.SetSequential(!threaded)
		start := time.Now()
		if _, err := eng.Replay(&telescope.SliceSource{Recs: recs}, nil, time.Millisecond); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		eng.RunFor(5 * time.Second)
		wall := time.Since(start)
		bindings := eng.GatewayStats().BindingsCreated
		eng.Close()
		return wall, bindings
	}
	for _, shards := range shardCounts {
		seqWall, seqBindings := run(shards, false)
		parWall, parBindings := run(shards, true)
		if seqBindings != parBindings {
			fmt.Fprintf(os.Stderr, "benchtab: e12 determinism violated: %d vs %d bindings\n",
				seqBindings, parBindings)
			os.Exit(1)
		}
		tab.AddRow(shards,
			float64(seqWall.Microseconds())/1000,
			float64(parWall.Microseconds())/1000,
			float64(seqWall)/float64(parWall),
			seqBindings)
	}
	r.print(tab)
	r.writeCSV("e12_shard_scaling", tab)
}

// e13 measures cluster mode: the same replay distributed over worker
// processes (in-process goroutines here, but over real localhost TCP
// and the full epoch protocol), against the single-process sequential
// oracle. The bindings column is checked for equality — distribution
// must not change results — and a final arm SIGKILLs a worker mid-run
// to time checkpoint recovery. Wall-clock, so machine-dependent.
func (r *runner) e13() {
	dur, rate := 20*time.Second, 1000.0
	workerCounts := []int{1, 2, 4}
	const shards = 4
	if r.quick {
		dur = 5 * time.Second
		workerCounts = []int{1, 2}
	}
	gcfg := telescope.DefaultGenConfig()
	gcfg.Duration = dur
	gcfg.Rate = rate
	gcfg.Seed = r.seed
	recs, err := telescope.Generate(gcfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("E13: cluster scaling (%d packets over %v, %d shards, wall-clock — machine-dependent)\n",
		len(recs), dur, shards)

	engCfg := func(faults *fault.Config) core.ShardEngineConfig {
		gc := gateway.DefaultConfig()
		gc.IdleTimeout = 5 * time.Second
		fc := farm.DefaultConfig()
		if fc.Servers < shards {
			fc.Servers = shards
		}
		return core.ShardEngineConfig{
			Shards: shards, Parallel: true, Seed: r.seed, Gateway: gc, Farm: fc, Fault: faults,
		}
	}

	// Sequential single-process oracle.
	runSeq := func(faults *fault.Config) (time.Duration, uint64) {
		cfg := engCfg(faults)
		cfg.Parallel = false
		eng, err := core.NewShardEngine(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		start := time.Now()
		if _, err := eng.Replay(&telescope.SliceSource{Recs: recs}, nil, time.Millisecond); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		eng.RunFor(5 * time.Second)
		wall := time.Since(start)
		bindings := eng.GatewayStats().BindingsCreated
		eng.Close()
		return wall, bindings
	}

	runCluster := func(workers, standbys int, faults *fault.Config) (time.Duration, uint64, int) {
		c, err := cluster.New(cluster.Config{
			Engine:            engCfg(faults),
			ConfigTag:         "benchtab-e13",
			ListenAddr:        "127.0.0.1:0",
			Workers:           workers,
			HeartbeatInterval: 100 * time.Millisecond,
			RecoveryWait:      30 * time.Second,
		})
		if err == nil {
			err = c.Start()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		var wg sync.WaitGroup
		for i := 0; i < workers+standbys; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				cluster.RunWorker(cluster.WorkerConfig{
					Addr: c.Addr().String(), Engine: engCfg(faults),
					ConfigTag: "benchtab-e13", Name: fmt.Sprintf("w%d", i),
					HeartbeatInterval: 100 * time.Millisecond,
				})
			}()
		}
		if err := c.WaitReady(time.Minute); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		start := time.Now()
		if _, err := c.Replay(&telescope.SliceSource{Recs: recs}, nil, time.Millisecond); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: e13 replay: %v\n", err)
			os.Exit(1)
		}
		c.RunFor(5 * time.Second)
		res, err := c.Results()
		wall := time.Since(start)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: e13 results: %v\n", err)
			os.Exit(1)
		}
		recov := c.Recoveries()
		c.Close()
		wg.Wait()
		return wall, res.Gateway.BindingsCreated, recov
	}

	seqWall, seqBindings := runSeq(nil)
	tab := metrics.NewTable("", "workers", "shards", "seq_wall_ms", "cluster_wall_ms", "speedup", "bindings", "recoveries")
	for _, workers := range workerCounts {
		wall, bindings, recov := runCluster(workers, 0, nil)
		if bindings != seqBindings {
			fmt.Fprintf(os.Stderr, "benchtab: e13 determinism violated: %d vs %d bindings\n",
				seqBindings, bindings)
			os.Exit(1)
		}
		tab.AddRow(workers, shards,
			float64(seqWall.Microseconds())/1000,
			float64(wall.Microseconds())/1000,
			float64(seqWall)/float64(wall),
			bindings, recov)
	}
	// Recovery arm: a fault-injected worker kill mid-run, with a hot
	// standby adopting the dead worker's shards from the coordinator's
	// epoch-boundary checkpoints. The oracle runs the same fault config
	// (a kill is a recorded no-op outside a cluster), so bindings must
	// still match exactly.
	killAt := dur / 2
	faults := &fault.Config{Script: []fault.Action{
		{At: killAt, Kind: fault.KindKillWorker, Server: 0},
	}}
	_, seqKillBindings := runSeq(faults)
	wall, bindings, recov := runCluster(2, 1, faults)
	if bindings != seqKillBindings || recov < 1 {
		fmt.Fprintf(os.Stderr, "benchtab: e13 recovery violated determinism: %d vs %d bindings, %d recoveries\n",
			seqKillBindings, bindings, recov)
		os.Exit(1)
	}
	tab.AddRow("2+kill", shards,
		float64(seqWall.Microseconds())/1000,
		float64(wall.Microseconds())/1000,
		float64(seqWall)/float64(wall),
		bindings, recov)
	r.print(tab)
	r.writeCSV("e13_cluster_scaling", tab)
}
