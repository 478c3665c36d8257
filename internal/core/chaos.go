package core

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"time"

	"potemkin/internal/farm"
	"potemkin/internal/fault"
	"potemkin/internal/gateway"
	"potemkin/internal/guest"
	"potemkin/internal/metrics"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/trace"
	"potemkin/internal/worm"
)

// The chaos experiment: run the same worm outbreak against an intact
// farm and against one that loses a server mid-run, and show that
// detection and containment degrade proportionally to the lost
// capacity instead of collapsing. The faulted arm exercises the whole
// recovery stack — stranded-binding recycling, clone retry on
// surviving servers, spawn-retry and shedding at the gateway — and its
// event sequence is a pure function of the seed.

// ChaosConfig parameterizes RunChaos. The zero value of every field
// has a sensible default.
type ChaosConfig struct {
	Seed    uint64 // default 1
	Servers int    // default 4

	// CrashServer is the index of the server to kill. Default 0.
	CrashServer int
	// Duration is the epidemic length; the crash lands at Duration/2,
	// once the farm is loaded, and the server recovers at 3*Duration/4.
	// Default 2 minutes.
	Duration time.Duration

	// TraceOut, when set, receives the binding-lifecycle span trace of
	// both arms as JSONL: the baseline's segment, then the faulted arm's.
	// Each segment opens with an "arm-start" instant naming the arm,
	// numbers its spans and traces from 1 (each arm runs on its own
	// engine), and ends with the arm's still-open spans flushed. Two runs
	// with the same seed write byte-identical output (the determinism
	// tests diff exactly this). Nil disables tracing.
	TraceOut io.Writer
}

// ChaosArm is one arm's outcome.
type ChaosArm struct {
	Name string

	Captured uint64 // honeyfarm infections observed (cumulative)
	Detected uint64 // scan-detector flags

	BindingsCreated  uint64
	BindingsRecycled uint64
	BackendLost      uint64 // bindings stranded by the crash, recycled via the gateway
	SpawnFailures    uint64 // gateway-visible final failures
	GatewayRetries   uint64 // gateway-level spawn retries
	FarmRetries      uint64 // farm-level re-placements on other servers
	BindingsShed     uint64 // bindings refused during shed windows
	CrashKilledVMs   uint64 // VMs that died with the server

	FinalLiveVMs  int
	FinalBindings int
	// EventCount / EventHash fingerprint the arm's forensic event log,
	// the engine's JSONL EventLog: its line count and the FNV-1a hash of
	// its bytes. Two runs with the same seed must produce identical
	// values.
	EventCount int
	EventHash  uint64
}

// ChaosResult is the two-arm comparison plus the applied-fault record.
type ChaosResult struct {
	Table    *metrics.Table
	Baseline ChaosArm
	Faulted  ChaosArm
	// FaultLog is the injector's applied-fault sequence (faulted arm),
	// rendered for display and run-to-run comparison.
	FaultLog []string
}

// ConservationOK reports whether both arms kept the binding ledger
// balanced: every binding ever created is either still live or was
// recycled — none leaked, even across a server crash.
func (r ChaosResult) ConservationOK() bool {
	ok := func(a ChaosArm) bool {
		return a.BindingsCreated == uint64(a.FinalBindings)+a.BindingsRecycled
	}
	return ok(r.Baseline) && ok(r.Faulted)
}

// RunChaos runs the outbreak twice — intact and with a mid-run server
// crash — and tabulates the comparison.
func RunChaos(cfg ChaosConfig) ChaosResult {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Servers <= 0 {
		cfg.Servers = 4
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Minute
	}

	res := ChaosResult{Table: metrics.NewTable(
		fmt.Sprintf("Chaos: outbreak with 1-of-%d server crash at t=%v (seed %d)",
			cfg.Servers, (cfg.Duration/2).Truncate(time.Second), cfg.Seed),
		"arm", "captured", "detected", "bindings", "recycled", "backend_lost",
		"farm_retries", "shed", "spawn_failures", "crash_killed", "live_vms")}

	res.Baseline, _ = runChaosArm(cfg, false)
	res.Faulted, res.FaultLog = runChaosArm(cfg, true)
	for _, a := range []ChaosArm{res.Baseline, res.Faulted} {
		res.Table.AddRow(a.Name, a.Captured, a.Detected, a.BindingsCreated,
			a.BindingsRecycled, a.BackendLost, a.FarmRetries, a.BindingsShed,
			a.SpawnFailures, a.CrashKilledVMs, a.FinalLiveVMs)
	}
	return res
}

// runChaosArm runs one arm of the experiment and returns its outcome
// and applied-fault log.
func runChaosArm(cfg ChaosConfig, faulted bool) (ChaosArm, []string) {
	wcfg := worm.DefaultConfig()
	wcfg.Seed = cfg.Seed
	wcfg.InitialInfected = 500
	wcfg.ScanRate = 100
	wcfg.ExploitPayload = guest.WindowsXP().ExploitPayload(0)
	wcfg.MaxDeliverPerStep = 8

	fc := farm.DefaultConfig()
	fc.Servers = cfg.Servers
	// Servers sized so the intact farm absorbs the outbreak with little
	// headroom: losing one pushes the survivors into saturation, which
	// is what exercises the farm-full and shed paths.
	fc.HostConfig.MemoryBytes = 112 << 20
	fc.Image = farm.ImageSpec{Name: "winxp", NumPages: 8192, ResidentPages: 2048, Seed: 42}

	gc := gateway.DefaultConfig()
	gc.Space = wcfg.Telescope
	gc.Policy = gateway.PolicyReflectSource
	// Short lifetimes so demand plateaus instead of growing all run:
	// the steady-state population is what the crash has to displace.
	gc.IdleTimeout = 20 * time.Second
	gc.MaxLifetime = 40 * time.Second
	gc.SpawnRetryBudget = 1
	gc.ShedOnFull = 500 * time.Millisecond

	name := "baseline"
	var faults *fault.Config
	if faulted {
		name = fmt.Sprintf("crash-server-%d", cfg.CrashServer)
		faults = &fault.Config{Script: []fault.Action{
			{
				At:       cfg.Duration / 2,
				Kind:     fault.KindCrash,
				Server:   cfg.CrashServer,
				Duration: cfg.Duration / 4,
			},
			// A flaky window right after the crash: 30% of clone
			// attempts fail transiently, so the farm's retry/re-place
			// machinery fires even when the survivors have room.
			{
				At:       cfg.Duration/2 + time.Second,
				Kind:     fault.KindCloneFail,
				Server:   -1,
				Prob:     0.3,
				Duration: 10 * time.Second,
			},
		}}
	}

	var e *worm.Epidemic
	var events bytes.Buffer
	eng, d := oneShard(ShardEngineConfig{
		Seed: cfg.Seed, Farm: fc, Gateway: gc, Fault: faults,
		EventLog: &events, TraceOut: cfg.TraceOut,
		OnEgress: func(_ sim.Time, pkt *netsim.Packet) { e.InjectLeak(pkt) },
	})
	wcfg.Deliver = d.G.HandleInbound
	e = worm.New(d.K, wcfg)

	eng.StartFaults()
	d.tracer.Instant(d.K.Now(), "arm-start", trace.Attr{K: "arm", V: name})
	e.Start()
	eng.RunUntil(sim.Start.Add(cfg.Duration))
	e.Stop()
	// Close writes out the arm's logs. A TraceOut write error is dropped,
	// as the trace's JSONL sink always has; EventLog is a buffer.
	_ = eng.Close()

	var faultLog []string
	if d.Fault != nil {
		for _, ev := range d.Fault.Log() {
			faultLog = append(faultLog, ev.String())
		}
	}

	g, f := d.G, d.F
	gs, fs := g.Stats(), f.Stats()
	var crashKilled uint64
	for _, h := range f.Hosts() {
		crashKilled += h.Stats().CrashKilledVMs
	}
	// Fingerprint the forensic log so two same-seed runs can be proven
	// identical by comparing two numbers.
	hash := fnv.New64a()
	hash.Write(events.Bytes())
	return ChaosArm{
		Name:             name,
		Captured:         fs.Infections,
		Detected:         gs.DetectedInfected,
		BindingsCreated:  gs.BindingsCreated,
		BindingsRecycled: gs.BindingsRecycled,
		BackendLost:      gs.BackendLost,
		SpawnFailures:    gs.SpawnFailures,
		GatewayRetries:   gs.SpawnRetries,
		FarmRetries:      fs.SpawnRetries,
		BindingsShed:     gs.BindingsShed,
		CrashKilledVMs:   crashKilled,
		FinalLiveVMs:     f.LiveVMs(),
		FinalBindings:    g.NumBindings(),
		EventCount:       bytes.Count(events.Bytes(), []byte{'\n'}),
		EventHash:        hash.Sum64(),
	}, faultLog
}
