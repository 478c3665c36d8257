// Command potemkind runs a simulated Potemkin honeyfarm against a
// telescope feed — a pcap savefile (from cmd/telescope, a -capture or
// -wire-pcap run, or any packet capture tool), live GRE-over-UDP wire
// traffic, or a freshly synthesized feed — and reports the gateway,
// farm, and memory statistics the paper's scalability argument is made
// of.
//
// Usage:
//
//	potemkind [flags]
//
//	-space CIDR      monitored address space (default 10.5.0.0/16)
//	-pcap FILE       replay a pcap savefile (streamed; bounded memory)
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
//	-interval D      progress interval in simulated time (default 10s; must be
//	                 positive): one line of Stats (t, live and infected VMs,
//	                 bindings created and recycled, memory in MiB) at the first
//	                 epoch barrier at or past each multiple, alike in every mode
//	-capture DIR     record gateway traffic, payloads included, as pcap savefiles
//	                 (in, tovm, out; under shard-<i>/ above one shard)
//	-checkpoints DIR save a delta checkpoint of every VM the scan detector flags
//	-trace-out F     write the binding-lifecycle span trace (JSONL; inspect trace,
//	                 and inspect trace -chrome for Perfetto, in every mode)
//	-debug-addr A    serve /snapshot, /metrics, expvar and pprof on this HTTP address
//	                 (a cluster worker serves pprof only)
//	-epoch-log F     write the engine's JSONL epoch timeline (inspect epochs)
//	-snapshot-out F  write the final JSON snapshot, the same bytes in every mode
//	                 (inspect snapshot)
//	-scenario S      run a deterministic attacker campaign (builtin family or JSON file)
//	-scorecard-out F write the campaign's effectiveness scorecard (JSON; inspect scorecard)
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
// A worker takes -capture and -checkpoints and writes its own shards'
// files on its host; the coordinator refuses them.
//
// Both roles build their domains from the same Options a
// single-process run would (potemkin.Options.EngineConfig), so
// coordinator and workers must be launched with the same scenario
// flags (space/servers/shards/policy/idle/guest/seed); the handshake
// rejects mismatches. Extra workers beyond -workers register as hot
// standbys and adopt a crashed worker's shards by replaying the epoch
// frames the coordinator logged for its slot. With -debug-addr the
// coordinator serves the farm-wide /metrics and /snapshot (read from the
// totals it gathers from the workers at the engine's epoch barriers, so
// the same bytes a single process serves there, next to its epoch
// profile) and /cluster (per-worker epoch lag, heartbeat age, recovery
// count) while the run is live; a worker serves /debug/pprof.
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
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
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
	"potemkin/internal/core"
	"potemkin/internal/ingest"
	"potemkin/internal/metrics"
	"potemkin/internal/netsim"
	"potemkin/internal/scenario"
	"potemkin/internal/score"
	"potemkin/internal/telescope"
)

func main() {
	f := defineFlags(flag.CommandLine)
	flag.Parse()
	opts, problems := f.options(flag.CommandLine)
	for _, p := range problems {
		logf("%s", p)
	}
	if len(problems) > 0 {
		os.Exit(1)
	}
	if opts.GuestProfile != nil {
		fmt.Printf("loaded guest personality %q from %s\n", opts.GuestProfile.Name, f.profile)
	}
	if f.worker != "" {
		os.Exit(runWorker(f, opts))
	}
	closeOutputs, err := openOutputs(f, &opts)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	code := run(f, opts)
	if err := closeOutputs(); err != nil {
		logf("%v", err)
		code = 1
	}
	os.Exit(code)
}

// openOutputs creates the files the output flags name and points opts
// at them; the returned func closes them.
func openOutputs(f *flags, opts *potemkin.Options) (func() error, error) {
	var files []*os.File
	closeAll := func() error {
		var errs []error
		for _, fl := range files {
			errs = append(errs, fl.Close())
		}
		return errors.Join(errs...)
	}
	for _, out := range []struct {
		path string
		w    *io.Writer
	}{
		{f.eventLog, &opts.EventLog}, {f.traceOut, &opts.TraceOut},
		{f.epochLog, &opts.EpochLog},
	} {
		if out.path == "" {
			continue
		}
		fl, err := os.Create(out.path)
		if err != nil {
			closeAll()
			return nil, err
		}
		files = append(files, fl)
		*out.w = fl
	}
	return closeAll, nil
}

// run drives the farm — in this process, or as the cluster coordinator
// — and returns the exit code. A signal flips the halt flag: the feed
// winds down and the run falls through to the normal report, so every
// writer is flushed.
func run(f *flags, opts potemkin.Options) int {
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	var interrupted atomic.Bool
	go func() {
		<-ctx.Done()
		interrupted.Store(true)
	}()
	if f.coordinator != "" {
		return runCoordinator(f, opts, interrupted.Load)
	}
	return runLocal(ctx, f, opts, interrupted.Load)
}

// farm is what a run drives: the in-process honeyfarm, or the cluster
// coordinator over its workers. Both take the same feed, report progress
// at the same epoch barriers and answer with their shards' summed
// counters and histograms, so one feed path, one progress line, one
// snapshot, one scorecard and one final report serve every mode.
type farm interface {
	// replay feeds src to the farm, then simulates epilogue more.
	replay(src telescope.Source, epilogue time.Duration, halt func() bool) (int, error)
	// totals is the farm's clock and its shards' summed counters and
	// histograms.
	totals() (time.Duration, core.Totals)
	// snapshot is the farm's Snapshot JSON, wire ingest accounting included.
	snapshot() ([]byte, error)
}

// local is a farm in this process; progress observes its replays.
type local struct {
	hf       *potemkin.Honeyfarm
	progress potemkin.ReplayOption
}

func (l local) replay(src telescope.Source, epilogue time.Duration, halt func() bool) (int, error) {
	return l.hf.Replay(src, potemkin.WithEpilogue(epilogue), potemkin.WithHalt(halt), l.progress)
}

func (l local) totals() (time.Duration, core.Totals) { return l.hf.Totals() }

func (l local) snapshot() ([]byte, error) { return l.hf.MarshalSnapshot() }

// marshalSnapshot is Honeyfarm.MarshalSnapshot's bytes for totals t at now.
func marshalSnapshot(now time.Duration, t core.Totals) ([]byte, error) {
	return json.MarshalIndent(potemkin.SnapshotOf(now, t), "", "  ")
}

// lastSnapshot is the snapshot JSON the run last published, for the
// debug endpoint: the progress observer publishes at an epoch barrier,
// on the goroutine driving the run while every shard is stopped, and
// HTTP handlers serve only the stored bytes, never simulation state.
var lastSnapshot atomic.Pointer[[]byte]

func publishSnapshot(b []byte, err error) {
	if err == nil {
		lastSnapshot.Store(&b)
	}
}

// serveRun serves a run's debug endpoint on addr, alike in every mode:
// /snapshot and expvar's potemkin variable from lastSnapshot ({} before
// the first), /metrics from metricsText, pprof, and whatever else the
// caller registered (paths lists it all).
func serveRun(addr string, metricsText func() []byte, paths string) {
	latest := func() []byte {
		if b := lastSnapshot.Load(); b != nil {
			return *b
		}
		return []byte("{}")
	}
	expvar.Publish("potemkin", expvar.Func(func() any { return json.RawMessage(latest()) }))
	http.HandleFunc("/snapshot", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(latest())
	})
	// The farm's series are published into the registry's atomics at
	// epoch barriers, and the scrape reads only those.
	http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		w.Write(metricsText())
	})
	serveDebug(addr, nil, paths)
}

// printProgress writes the progress line for st: the farm's state at an
// epoch barrier, the same bytes in every mode.
func printProgress(st potemkin.Stats) {
	fmt.Printf("  t=%-8v live=%-5d infected=%-4d bindings=%d recycled=%d mem=%dMiB\n",
		st.Now.Truncate(time.Millisecond), st.LiveVMs, st.InfectedVMs,
		st.BindingsCreated, st.BindingsRecycled, st.MemoryInUse>>20)
}

// runLocal runs the farm in this process.
func runLocal(ctx context.Context, f *flags, opts potemkin.Options, halt func() bool) int {
	opts.Hooks = &potemkin.Hooks{OnDetected: func(addr string, n int) {
		fmt.Printf("  !! scan detector: VM %s attempted %d distinct targets\n", addr, n)
	}}
	hf, err := potemkin.New(opts)
	if err != nil {
		logf("%v", err)
		return 1
	}
	defer hf.Close()

	if f.debugAddr != "" {
		serveRun(f.debugAddr, hf.MetricsText, "/snapshot, /metrics, /debug/vars, /debug/pprof")
	}
	progress := potemkin.WithProgress(f.interval, func(st potemkin.Stats) {
		printProgress(st)
		publishSnapshot(hf.MarshalSnapshot())
	})

	var (
		fm        = local{hf, progress}
		injected  int
		card      *potemkin.Scorecard
		wireStats *potemkin.WireStats
	)
	if opts.Wire != nil {
		srv, serr := hf.StartWire()
		if serr != nil {
			logf("%v", serr)
			return 1
		}
		ws, serr := serveWire(ctx, srv, f, halt, progress)
		injected, wireStats, err = ws.Injected, &ws, serr
	} else {
		ec, eerr := opts.EngineConfig()
		if eerr != nil {
			logf("%v", eerr)
			return 1
		}
		fd, ferr := openFeed(f, opts, ec.Gateway.Space)
		if ferr != nil {
			logf("%v", ferr)
			return 1
		}
		injected, card, err = fd.run(fm, opts.Policy, halt)
	}
	return conclude(fm, f, injected, card, wireStats, err, halt())
}

// serveWire serves the live GRE-over-UDP feed until a signal or
// -listen-for stops it.
func serveWire(ctx context.Context, srv *potemkin.WireServer, f *flags, halt func() bool, progress potemkin.ReplayOption) (potemkin.WireStats, error) {
	framing := "timestamped GRE"
	if f.plainGRE {
		framing = "plain GRE"
	}
	fmt.Printf("listening for %s over UDP on %s (%d shard(s), queue %d)\n",
		framing, srv.Addr(), f.listenShards, f.queueLen)
	if f.wirePcap != "" {
		fmt.Printf("capturing wire injections to %s (replay with -pcap %s)\n", f.wirePcap, f.wirePcap)
	}
	// The feed stops on signal or after -listen-for (the facade owns
	// that timer); Serve then drains the queues, runs the epilogue,
	// and returns.
	go func() {
		<-ctx.Done()
		srv.Stop()
	}()
	ws, err := srv.Serve(potemkin.WithHalt(halt), progress)
	if err != nil {
		err = fmt.Errorf("wire serve: %w", err)
	}
	return ws, err
}

// feed is a run's input, chosen from the flags the same way in every
// mode.
type feed struct {
	src      telescope.Source
	epilogue time.Duration  // simulated after the last record
	plan     *scenario.Plan // the campaign, with -scenario
	file     *os.File       // the trace or pcap being streamed
}

// openFeed selects the feed: the campaign's compiled packet plan, a
// pcap savefile, or traffic synthesized for space.
func openFeed(f *flags, opts potemkin.Options, space netsim.Prefix) (*feed, error) {
	fd := &feed{epilogue: time.Millisecond}
	switch {
	case opts.Scenario != nil:
		// The settle window keeps the farm simulating long enough for the
		// scorecard to see the campaign's whole horizon.
		plan, err := scenario.Compile(opts.Scenario, opts.Seed, space)
		if err != nil {
			return nil, err
		}
		fd.src, fd.epilogue, fd.plan = &telescope.SliceSource{Recs: plan.Records}, plan.Settle, plan
		fmt.Printf("scenario %q: replaying %d campaign packets, settling %v\n",
			plan.Scenario.Name, len(plan.Records), plan.Settle)
	case f.pcapF != "":
		file, err := os.Open(f.pcapF)
		if err != nil {
			return nil, err
		}
		if fd.src, err = ingest.NewPcapSource(file); err != nil {
			file.Close()
			return nil, fmt.Errorf("reading %s: %v", f.pcapF, err)
		}
		fd.file = file
		fmt.Printf("streaming replay from %s\n", f.pcapF)
	default:
		gen := telescope.DefaultGenConfig()
		gen.Space, gen.Duration, gen.Rate, gen.Seed = space, f.duration, f.rate, opts.Seed
		recs, err := telescope.Generate(gen)
		if err != nil {
			return nil, err
		}
		fd.src = &telescope.SliceSource{Recs: recs}
		fmt.Printf("synthesized %d packets over %v at %.0f pps\n", len(recs), f.duration, f.rate)
	}
	return fd, nil
}

// run drives fm with the feed and closes it. A campaign is scored from
// the farm's final counters, the same way Honeyfarm.RunScenario scores
// it, so every mode writes the same card.
func (fd *feed) run(fm farm, policy potemkin.Policy, halt func() bool) (int, *potemkin.Scorecard, error) {
	n, err := fm.replay(fd.src, fd.epilogue, halt)
	if fd.file != nil {
		fd.file.Close()
	}
	if fd.plan == nil {
		return n, nil, err
	}
	_, t := fm.totals()
	return n, score.Compute(fd.plan.Facts(policy.String()), &t), err
}

// conclude reports a finished run the same way in every mode — the
// campaign's scorecard, the final stats and, unless -json owns stdout,
// the wire listener's accounting (ws, nil without -listen), the guest
// activity and the per-stage latencies — then publishes the final
// snapshot and writes -snapshot-out. It returns the exit code: 1 when
// the run hit an error, which is reported after whatever it collected,
// or an output could not be written.
func conclude(fm farm, f *flags, injected int, card *potemkin.Scorecard, ws *potemkin.WireStats, runErr error, interrupted bool) int {
	code := 0
	if runErr != nil {
		logf("%v", runErr)
		code = 1
	}
	if interrupted {
		fmt.Println("\ninterrupted: flushing writers and reporting partial results")
	}
	if card != nil {
		if err := emitScorecard(card, f.scorecardOut, f.jsonOut); err != nil {
			logf("%v", err)
			code = 1
		}
	}
	now, t := fm.totals()
	st := potemkin.StatsOf(now, t)
	if f.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(st); err != nil {
			logf("%v", err)
			code = 1
		}
	} else {
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
		fmt.Printf("  farm memory in use    %d MiB across %d servers\n", st.MemoryInUse>>20, f.servers)
		if ws != nil {
			ig := ws.Ingest
			tab := metrics.NewTable("\nwire ingest",
				"datagrams", "decap-errors", "queue-drops", "seq-gaps", "delivered", "clamped", "queue-hwm")
			tab.AddRow(ig.Received, ig.FrameErrors, ig.Dropped,
				ig.SeqGaps, ig.Delivered, ig.Clamped, ig.QueueHWM)
			tab.Render(os.Stdout)
		}
		gt := t.Guest
		fmt.Printf("  guest activity (all VMs): conns=%d established=%d app-responses=%d dns=%d scans-out=%d\n",
			gt.ConnsAccepted, gt.ConnsEstablished, gt.AppResponses, gt.DNSQueries, gt.ScansOut)
		if stages := potemkin.SnapshotOf(now, t).StagesMs; stages != nil {
			tab := metrics.NewTable("\nper-stage latency (ms)",
				"stage", "count", "mean", "p50", "p90", "p99", "max")
			for _, name := range slices.Sorted(maps.Keys(stages)) {
				l := stages[name]
				tab.AddRow(name, l.Count, l.Mean, l.P50, l.P90, l.P99, l.Max)
			}
			tab.Render(os.Stdout)
		}
	}
	b, err := fm.snapshot()
	publishSnapshot(b, err)
	if f.snapshotOut != "" {
		if err == nil {
			err = os.WriteFile(f.snapshotOut, b, 0o644)
		}
		if err != nil {
			logf("%v", err)
			return 1
		}
		if !f.jsonOut {
			fmt.Printf("\n[snapshot] %s\n", f.snapshotOut)
		}
	}
	return code
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

// serveDebug serves h, or the default mux when h is nil, on addr in the
// background.
func serveDebug(addr string, h http.Handler, paths string) {
	go func() {
		if err := http.ListenAndServe(addr, h); err != nil {
			logf("debug endpoint: %v", err)
		}
	}()
	fmt.Printf("debug endpoint on http://%s (%s)\n", addr, paths)
}

// logf writes to stderr, keeping stdout clean for -json output.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "potemkind: "+format+"\n", args...)
}
