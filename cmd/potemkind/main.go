// Command potemkind runs a simulated Potemkin honeyfarm against a
// telescope feed — a trace file recorded by cmd/telescope, a pcap
// capture, live GRE-over-UDP wire traffic, or a freshly synthesized
// feed — and reports the gateway, farm, and memory statistics the
// paper's scalability argument is made of.
//
// Usage:
//
//	potemkind [flags]
//
//	-space CIDR      monitored address space (default 10.5.0.0/16)
//	-trace FILE      replay a recorded .potm trace (streamed; bounded memory)
//	-pcap FILE       replay a pcap savefile instead
//	-listen ADDR     serve live GRE-over-UDP wire ingest on this UDP address
//	                 (works under -parallel: arrivals are quantized onto the
//	                 epoch grid, and the run replays exactly from -wire-pcap)
//	-listen-for D    stop serving after this much wall time (0: until ^C)
//	-listen-shards N listener shards (queues) for -listen (default 1)
//	-queue N         per-shard ingest queue length (default 4096)
//	-plain-gre       -listen expects plain GRE framing (no timestamp prefix)
//	-speedup F       wall->virtual scale for plain-framing arrivals
//	-wire-pcap FILE  capture every live wire injection to this pcap — the
//	                 run's replayable artifact (-pcap FILE reproduces it)
//	-duration D      length of synthesized feed (default 2m)
//	-rate PPS        synthesized feed packet rate (default 200)
//	-servers N       physical servers (default 4)
//	-shards N        gateway instances partitioning the monitored space, one
//	                 simulation domain each (needs -servers >= N)
//	-parallel        run the shards' epochs on one goroutine each (needs
//	                 -shards >= 2; same bytes as without it)
//	-policy NAME     open|drop-all|reflect-source|internal-reflect
//	-idle D          VM idle-recycling timeout (default 60s; 0 disables)
//	-guest NAME      winxp|sqlserver|linux
//	-seed N          simulation seed
//	-interval D      progress report interval in simulated time (default 10s)
//	-capture DIR     record gateway traffic (.potm, or .pcap with -capture-pcap)
//	-trace-out F     write the binding-lifecycle span trace (JSONL; see cmd/tracetool)
//	-trace-chrome F  write the trace in Chrome trace-event format (Perfetto)
//	-debug-addr A    serve /snapshot, /metrics, expvar and pprof on this HTTP address
//	-epoch-log F     write the engine's JSONL epoch timeline (tracetool -epochs)
//	-snapshot-out F  write the final JSON snapshot
//	-scenario S      run a deterministic attacker campaign (builtin family or JSON file)
//	-scorecard-out F write the campaign's effectiveness scorecard (JSON; cmd/scorecard renders it)
//
// Cluster mode distributes the shards across worker processes while
// keeping results byte-identical to a single-process run (see
// internal/cluster and DESIGN.md "Cluster execution"):
//
//	-coordinator A   run the epoch coordinator, serving workers on TCP address A
//	-worker A        host shard domains for the coordinator at address A
//	-workers N       worker processes the coordinator splits shards over (default 2)
//	-name S          worker name in logs and recovery events
//	-heartbeat D     cluster heartbeat interval (default 1s)
//	-heartbeat-timeout D  declare a peer dead after this much silence (default 5s)
//	-recovery-wait D wait this long for a replacement worker before degrading
//
// Coordinator and workers must be launched with the same scenario
// flags (space/servers/shards/policy/idle/guest/seed); the handshake
// rejects mismatches. Extra workers beyond -workers register as hot
// standbys and adopt a crashed worker's shards from the coordinator's
// epoch-boundary checkpoints. With -debug-addr the coordinator serves
// the farm-wide /metrics (its epoch profile merged with the registry
// snapshots workers piggyback on heartbeats) and /cluster (per-worker
// epoch lag, heartbeat age, recovery count) while the run is live.
//
// SIGINT/SIGTERM stop the feed cleanly: the replay or listener winds
// down, and every open writer (trace, capture, event log, snapshot) is
// flushed before exit instead of being truncated mid-record. The
// cluster coordinator halts the feed at the next epoch boundary and
// still merges and flushes everything the workers collected; a worker
// defers its first signal to the coordinator (which owns that flush).
package main

import (
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"maps"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"os/signal"
	"slices"
	"sync/atomic"
	"syscall"
	"time"

	"potemkin"
	"potemkin/internal/guest"
	"potemkin/internal/ingest"
	"potemkin/internal/metrics"
	"potemkin/internal/sim"
	"potemkin/internal/telescope"
)

func main() {
	var (
		space     = flag.String("space", "10.5.0.0/16", "monitored address space (CIDR)")
		traceF    = flag.String("trace", "", "trace file to replay (default: synthesize)")
		pcapF     = flag.String("pcap", "", "pcap savefile to replay instead of a .potm trace")
		listen    = flag.String("listen", "", "serve live GRE-over-UDP ingest on this UDP address (e.g. 127.0.0.1:4754)")
		listenFor = flag.Duration("listen-for", 0, "stop the listener after this much wall time (0: until interrupted)")
		shardsIn  = flag.Int("listen-shards", 1, "ingest listener shards (1 keeps wire replay deterministic)")
		queueLen  = flag.Int("queue", 4096, "per-shard ingest queue length (frames)")
		plainGRE  = flag.Bool("plain-gre", false, "expect plain GRE framing on -listen (no timestamp prefix; arrival clock maps to virtual time)")
		speedup   = flag.Float64("speedup", 1, "wall-to-virtual time scale for plain-framing arrivals")
		wirePcap  = flag.String("wire-pcap", "", "capture every live wire injection to this pcap savefile (requires -listen; replay it with -pcap)")
		duration  = flag.Duration("duration", 2*time.Minute, "synthesized feed duration")
		rate      = flag.Float64("rate", 200, "synthesized feed rate (packets/sec)")
		servers   = flag.Int("servers", 4, "physical servers")
		shards    = flag.Int("shards", 1, "gateway instances partitioning the monitored space")
		parallel  = flag.Bool("parallel", false, "run gateway shards on parallel epochs (requires -shards >= 2)")
		policy    = flag.String("policy", "internal-reflect", "containment policy")
		idle      = flag.Duration("idle", 60*time.Second, "VM idle-recycling timeout (0 disables)")
		guestN    = flag.String("guest", "winxp", "guest personality")
		profileF  = flag.String("profile", "", "load a custom guest personality from a JSON profile file")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		interval  = flag.Duration("interval", 10*time.Second, "progress interval (simulated)")
		eventLog  = flag.String("eventlog", "", "write the gateway's forensic event log (JSONL) to this file")
		capture   = flag.String("capture", "", "record all gateway traffic into trace files under this directory")
		capPcap   = flag.Bool("capture-pcap", false, "write -capture files as pcap savefiles instead of .potm")
		ckptDir   = flag.String("checkpoints", "", "save delta checkpoints of detected VMs into this directory")
		jsonOut   = flag.Bool("json", false, "emit the final stats as JSON on stdout")
		traceOut  = flag.String("trace-out", "", "write the binding-lifecycle span trace (JSONL) to this file")
		traceChr  = flag.String("trace-chrome", "", "write the trace in Chrome trace-event format (Perfetto-loadable) to this file")
		debug     = flag.String("debug-addr", "", "serve /snapshot, /metrics, /debug/vars (expvar) and /debug/pprof on this address while running")
		epochLog  = flag.String("epoch-log", "", "write the engine's JSONL epoch timeline to this file (see tracetool -epochs)")
		snapOut   = flag.String("snapshot-out", "", "write the final JSON snapshot to this file")
		scenarioF = flag.String("scenario", "", "run a deterministic attacker campaign: builtin family name or scenario JSON file")
		scoreOut  = flag.String("scorecard-out", "", "write the campaign's effectiveness scorecard (JSON) to this file (requires -scenario; see cmd/scorecard)")

		coordAddr  = flag.String("coordinator", "", "run as cluster coordinator, serving workers on this TCP address")
		workerAddr = flag.String("worker", "", "run as cluster worker, dialing the coordinator at this TCP address")
		workersN   = flag.Int("workers", 2, "worker processes the coordinator distributes shards over")
		workerName = flag.String("name", "", "worker name in logs and recovery events (default host:pid)")
		heartbeat  = flag.Duration("heartbeat", time.Second, "cluster heartbeat interval")
		hbTimeout  = flag.Duration("heartbeat-timeout", 5*time.Second, "declare a cluster peer dead after this much silence")
		recWait    = flag.Duration("recovery-wait", 30*time.Second, "how long the coordinator waits for a replacement worker before degrading")
	)
	flag.Parse()
	setFlags := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })

	// Flag validation reports every problem, one per line, before
	// exiting — a misconfigured invocation should not take N runs to
	// discover N mistakes.
	var problems []string
	badFlags := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	clusterMode := *coordAddr != "" || *workerAddr != ""
	if moreThanOne(*traceF != "", *pcapF != "", *listen != "") {
		badFlags("-trace, -pcap, and -listen are mutually exclusive")
	}
	if *wirePcap != "" && *listen == "" {
		badFlags("-wire-pcap requires -listen (it captures the live wire feed)")
	}
	if *coordAddr != "" && *workerAddr != "" {
		badFlags("-coordinator and -worker are mutually exclusive")
	}
	if clusterMode && *listen != "" {
		badFlags("cluster mode does not support -listen (wire arrivals defeat conservative lookahead)")
	}
	if *coordAddr != "" && *shards < 2 {
		badFlags("-coordinator requires -shards >= 2 (got %d)", *shards)
	}
	if *coordAddr != "" && *workersN < 1 {
		badFlags("-workers must be >= 1 (got %d)", *workersN)
	}
	if *workerAddr != "" {
		for name, set := range map[string]bool{
			"-trace": *traceF != "", "-pcap": *pcapF != "", "-json": *jsonOut,
			"-eventlog": *eventLog != "", "-trace-out": *traceOut != "",
			"-snapshot-out": *snapOut != "", "-debug-addr": *debug != "",
			"-epoch-log": *epochLog != "", "-scorecard-out": *scoreOut != "",
		} {
			if set {
				badFlags("%s is a coordinator flag; the worker ships its output over the cluster protocol", name)
			}
		}
	}
	if clusterMode {
		for name, set := range map[string]bool{
			"-capture": *capture != "", "-checkpoints": *ckptDir != "",
			"-trace-chrome": *traceChr != "",
		} {
			if set {
				badFlags("%s is not supported in cluster mode", name)
			}
		}
	}
	if *scoreOut != "" && *scenarioF == "" {
		badFlags("-scorecard-out requires -scenario (the scorecard scores a campaign run)")
	}
	if *scenarioF != "" {
		for name, set := range map[string]bool{
			"-trace": *traceF != "", "-pcap": *pcapF != "",
			"-listen": *listen != "", "-profile": *profileF != "",
		} {
			if set {
				badFlags("%s conflicts with -scenario (the scenario defines the feed and the guest)", name)
			}
		}
		for _, name := range []string{"guest", "rate", "duration"} {
			if setFlags[name] {
				badFlags("-%s conflicts with -scenario (the scenario defines the feed and the guest)", name)
			}
		}
	}

	opts := potemkin.Options{
		Seed:           *seed,
		MonitoredSpace: *space,
		Servers:        *servers,
		GatewayShards:  *shards,
		Parallel:       *parallel,
		IdleTimeout:    *idle,
	}
	if *idle == 0 {
		opts.IdleTimeout = -1
	}
	switch *policy {
	case "open":
		opts.Policy = potemkin.Open
	case "drop-all":
		opts.Policy = potemkin.DropAll
	case "reflect-source":
		opts.Policy = potemkin.ReflectSource
	case "internal-reflect":
		opts.Policy = potemkin.InternalReflect
	default:
		badFlags("unknown policy %q (want open, drop-all, reflect-source, or internal-reflect)", *policy)
	}
	switch *guestN {
	case "winxp":
		opts.Guest = potemkin.GuestWindowsXP
	case "sqlserver":
		opts.Guest = potemkin.GuestSQLServer
	case "linux":
		opts.Guest = potemkin.GuestLinuxServer
	default:
		badFlags("unknown guest %q (want winxp, sqlserver, or linux)", *guestN)
	}
	if *listen != "" && !clusterMode {
		opts.Wire = &potemkin.WireOptions{
			Addr:      *listen,
			Shards:    *shardsIn,
			QueueLen:  *queueLen,
			PlainGRE:  *plainGRE,
			Speedup:   *speedup,
			ListenFor: *listenFor,
			Capture:   *wirePcap,
		}
	}
	var campaign *potemkin.Scenario
	if *scenarioF != "" {
		c, err := potemkin.LoadScenario(*scenarioF)
		if err != nil {
			badFlags("%v", err)
		} else {
			campaign = c
			opts.Scenario = campaign
		}
	}
	if !clusterMode {
		if err := opts.Validate(); err != nil {
			badFlags("%v", err)
		}
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "potemkind: %s\n", p)
		}
		os.Exit(1)
	}
	if *profileF != "" {
		f, err := os.Open(*profileF)
		if err != nil {
			fatalf("%v", err)
		}
		p, err := guest.LoadProfile(f)
		f.Close()
		if err != nil {
			fatalf("%v", err)
		}
		opts.GuestProfile = p
		fmt.Printf("loaded guest personality %q from %s\n", p.Name, *profileF)
	}

	// Cluster roles bypass the in-process facade: the coordinator owns
	// the feed, barrier, and merged output; workers host shard domains.
	if clusterMode {
		prof := opts.GuestProfile
		if prof == nil {
			switch *guestN {
			case "winxp":
				prof = guest.WindowsXP()
			case "sqlserver":
				prof = guest.SQLServer()
			case "linux":
				prof = guest.LinuxServer()
			}
		}
		sc := clusterScenario{
			Space: *space, Servers: *servers, Shards: *shards,
			Parallel: *parallel, Policy: *policy, Idle: *idle,
			Profile: prof, Seed: *seed, Campaign: campaign,
		}
		if *workerAddr != "" {
			os.Exit(runClusterWorker(sc, *workerAddr, *workerName, *heartbeat))
		}
		run := coordinatorRun{
			scenario: sc, addr: *coordAddr, workers: *workersN,
			heartbeat: *heartbeat, heartbeatTimeout: *hbTimeout, recoveryWait: *recWait,
			traceFile: *traceF, pcapFile: *pcapF, duration: *duration, rate: *rate,
			jsonOut: *jsonOut, snapOut: *snapOut, debugAddr: *debug,
			scorecardOut: *scoreOut,
		}
		if *eventLog != "" {
			f, err := os.Create(*eventLog)
			if err != nil {
				fatalf("%v", err)
			}
			run.eventLog = f
		}
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fatalf("%v", err)
			}
			run.traceOut = f
		}
		if *epochLog != "" {
			f, err := os.Create(*epochLog)
			if err != nil {
				fatalf("%v", err)
			}
			run.epochLog = f
		}
		code := runClusterCoordinator(run)
		if run.eventLog != nil {
			run.eventLog.Close()
		}
		if run.traceOut != nil {
			run.traceOut.Close()
		}
		if run.epochLog != nil {
			run.epochLog.Close()
		}
		os.Exit(code)
	}
	opts.Hooks = &potemkin.Hooks{OnDetected: func(addr string, n int) {
		fmt.Printf("  !! scan detector: VM %s attempted %d distinct targets\n", addr, n)
	}}
	if *eventLog != "" {
		f, err := os.Create(*eventLog)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		opts.EventLog = f
	}
	opts.CaptureDir = *capture
	opts.CapturePcap = *capPcap
	opts.CheckpointDir = *ckptDir
	// Trace files are registered for closing before the honeyfarm so the
	// deferred hf.Close() (which flushes open spans and terminates the
	// Chrome array) runs first.
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		opts.TraceOut = f
	}
	if *traceChr != "" {
		f, err := os.Create(*traceChr)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		opts.TraceChrome = f
	}
	if *epochLog != "" {
		f, err := os.Create(*epochLog)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		opts.EpochLog = f
	}
	// The live /metrics scrape needs the telemetry registry; the farm
	// publishes its counters into it at epoch barriers, so turn it on
	// only when the debug endpoint (its one consumer here) is requested.
	opts.Metrics = *debug != ""

	hf, err := potemkin.New(opts)
	if err != nil {
		fatalf("%v", err)
	}
	defer hf.Close()

	// Graceful shutdown: a signal flips the flag; the replay loop and
	// the wire listener both consult it, wind down, and fall through to
	// the normal epilogue so every writer is flushed.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	var interrupted atomic.Bool
	go func() {
		<-ctx.Done()
		interrupted.Store(true)
	}()

	// The live debug endpoint must never touch simulation state from the
	// HTTP goroutine (the sim is single-threaded): the periodic progress
	// callback below marshals a snapshot on the sim thread and stores the
	// bytes in an atomic pointer; HTTP handlers serve the stored bytes.
	var lastSnap atomic.Pointer[[]byte]
	publishSnap := func() {
		if b, err := hf.MarshalSnapshot(); err == nil {
			lastSnap.Store(&b)
		}
	}
	publishSnap()
	if *debug != "" {
		expvar.Publish("potemkin", varFunc(func() string {
			if b := lastSnap.Load(); b != nil {
				return string(*b)
			}
			return "{}"
		}))
		http.HandleFunc("/snapshot", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if b := lastSnap.Load(); b != nil {
				w.Write(*b)
			} else {
				w.Write([]byte("{}"))
			}
		})
		// /metrics follows the same rule by itself: the engine publishes
		// the farm's counters into the registry's atomics at epoch
		// barriers, and the scrape reads only those.
		http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			w.Write(hf.MetricsText())
		})
		go func() {
			if err := http.ListenAndServe(*debug, nil); err != nil {
				fmt.Fprintf(os.Stderr, "potemkind: debug endpoint: %v\n", err)
			}
		}()
		fmt.Printf("debug endpoint on http://%s (/snapshot, /metrics, /debug/vars, /debug/pprof)\n", *debug)
	}

	// Progress reporting rides the simulation clock: a ticker on shard
	// 0's kernel. Without -parallel the shards advance in turn on this
	// goroutine, so the ticker may read them all; with it they run
	// concurrently, nothing may, and progress comes only from the final
	// report.
	eng := hf.Internals().Engine
	if !*parallel {
		eng.Domains()[0].K.Every(*interval, func(now sim.Time) {
			snap := hf.Snapshot()
			line := fmt.Sprintf("  t=%-8v live=%-5d infected=%-4d bindings=%d recycled=%d pending=%d mem=%dMiB",
				time.Duration(now).Truncate(time.Millisecond), snap.LiveVMs, snap.InfectedVMs,
				snap.BindingsCreated, snap.BindingsRecycled, snap.PendingQueued,
				snap.MemoryInUseBytes>>20)
			if snap.CloneMs.Count > 0 {
				line += fmt.Sprintf(" clone[p50=%.1fms p99=%.1fms]", snap.CloneMs.P50, snap.CloneMs.P99)
			}
			fmt.Println(line)
			publishSnap()
		})
	}

	var injected int
	var wireStats *potemkin.WireStats
	halt := interrupted.Load
	switch {
	case campaign != nil:
		fmt.Printf("scenario %q: replaying the compiled campaign\n", campaign.Name)
		card, err := hf.RunScenario(potemkin.WithHalt(halt))
		if err != nil {
			fatalf("scenario: %v", err)
		}
		injected = card.Facts.Steps
		if err := emitScorecard(card, *scoreOut, *jsonOut); err != nil {
			fatalf("%v", err)
		}
	case *listen != "":
		srv, err := hf.StartWire()
		if err != nil {
			fatalf("%v", err)
		}
		framing := "timestamped GRE"
		if *plainGRE {
			framing = "plain GRE"
		}
		fmt.Printf("listening for %s over UDP on %s (%d shard(s), queue %d)\n",
			framing, srv.Addr(), *shardsIn, *queueLen)
		if *wirePcap != "" {
			fmt.Printf("capturing wire injections to %s (replay with -pcap %s)\n", *wirePcap, *wirePcap)
		}
		// The feed stops on signal or after -listen-for (the facade owns
		// that timer); Serve then drains the queues, runs the epilogue,
		// and returns.
		go func() {
			<-ctx.Done()
			srv.Stop()
		}()
		ws, err := srv.Serve(potemkin.WithHalt(halt))
		if err != nil {
			fmt.Fprintf(os.Stderr, "potemkind: wire serve: %v\n", err)
		}
		injected = ws.Injected
		wireStats = &ws
	case *traceF != "" || *pcapF != "":
		name := *traceF
		var src telescope.Source
		f, err := os.Open(nameOr(*traceF, *pcapF))
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		if *pcapF != "" {
			name = *pcapF
			ps, err := ingest.NewPcapSource(f)
			if err != nil {
				fatalf("reading %s: %v", name, err)
			}
			src = ps
		} else {
			tr, err := telescope.NewReader(f)
			if err != nil {
				fatalf("reading %s: %v", name, err)
			}
			src = tr
		}
		fmt.Printf("streaming replay from %s\n", name)
		injected, err = hf.Replay(src, potemkin.WithHalt(halt))
		if err != nil {
			fmt.Fprintf(os.Stderr, "potemkind: replay: %v\n", err)
		}
	default:
		recs, err := hf.GenerateTrace(*duration, *rate)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("synthesized %d packets over %v at %.0f pps\n", len(recs), *duration, *rate)
		injected, _ = hf.Replay(potemkin.SliceSource(recs), potemkin.WithHalt(halt))
	}
	if interrupted.Load() {
		fmt.Println("\ninterrupted: flushing writers and reporting partial results")
	}
	publishSnap()

	st := hf.Stats()
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(st); err != nil {
			fatalf("%v", err)
		}
		return
	}
	fmt.Printf("\nfinal after %v simulated:\n", st.Now.Truncate(time.Millisecond))
	fmt.Printf("  injected packets      %d\n", injected)
	fmt.Printf("  delivered to VMs      %d\n", st.DeliveredToVM)
	fmt.Printf("  bindings created      %d\n", st.BindingsCreated)
	fmt.Printf("  bindings recycled     %d\n", st.BindingsRecycled)
	fmt.Printf("  peak live VMs         %d\n", st.PeakVMs)
	fmt.Printf("  live VMs now          %d\n", st.LiveVMs)
	fmt.Printf("  infected VMs          %d (detector flagged %d)\n", st.InfectedVMs, st.DetectedInfected)
	fmt.Printf("  outbound: to-source=%d dns=%d reflected=%d dropped=%d\n",
		st.OutboundToSource, st.DNSProxied, st.OutboundReflected, st.OutboundDropped)
	fmt.Printf("  spawn failures        %d\n", st.SpawnFailures)
	fmt.Printf("  farm memory in use    %d MiB across %d servers\n", st.MemoryInUse>>20, *servers)

	if wireStats != nil {
		ig := wireStats.Ingest
		tab := metrics.NewTable("\nwire ingest",
			"datagrams", "decap-errors", "queue-drops", "seq-gaps", "delivered", "clamped", "queue-hwm")
		tab.AddRow(ig.Received, ig.FrameErrors, ig.Dropped,
			ig.SeqGaps, ig.Delivered, ig.Clamped, ig.QueueHWM)
		tab.Render(os.Stdout)
	}

	gt := eng.GuestTotals()
	fmt.Printf("  guest activity (live VMs): conns=%d established=%d app-responses=%d dns=%d scans-out=%d\n",
		gt.ConnsAccepted, gt.ConnsEstablished, gt.AppResponses, gt.DNSQueries, gt.ScansOut)

	if stages := hf.Snapshot().StagesMs; stages != nil {
		tab := metrics.NewTable("\nper-stage latency (ms)",
			"stage", "count", "mean", "p50", "p90", "p99", "max")
		for _, name := range slices.Sorted(maps.Keys(stages)) {
			l := stages[name]
			tab.AddRow(name, l.Count, l.Mean, l.P50, l.P90, l.P99, l.Max)
		}
		tab.Render(os.Stdout)
	}
	if *snapOut != "" {
		b, err := hf.MarshalSnapshot()
		if err != nil {
			fatalf("%v", err)
		}
		if err := os.WriteFile(*snapOut, b, 0o644); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("\n[snapshot] %s\n", *snapOut)
	}
}

// emitScorecard renders card on stdout (suppressed under -json, which
// owns stdout for the stats object) and writes the deterministic JSON
// form to path when set.
func emitScorecard(card *potemkin.Scorecard, path string, jsonOut bool) error {
	if !jsonOut {
		card.Render(os.Stdout)
	}
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := card.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if !jsonOut {
		fmt.Printf("[scorecard] %s\n", path)
	}
	return nil
}

// moreThanOne reports whether more than one of the flags is set.
func moreThanOne(flags ...bool) bool {
	n := 0
	for _, f := range flags {
		if f {
			n++
		}
	}
	return n > 1
}

// nameOr returns a if non-empty, else b.
func nameOr(a, b string) string {
	if a != "" {
		return a
	}
	return b
}

// varFunc adapts a closure to expvar.Var, returning pre-marshaled JSON
// (expvar.Func would re-marshal, and must not touch sim state).
type varFunc func() string

func (f varFunc) String() string { return f() }

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "potemkind: "+format+"\n", args...)
	os.Exit(1)
}
