package cluster

// The cross-mode harness. Same-seed identity across execution modes is
// the project's spine, so every test that compares two modes runs one
// spec through runModes and compares the artifact sets with
// requireSame. It lives in this package because the cluster modes need
// what only this package's tests reach: Coordinator.Inject (see
// export_test.go), the coordinator's runner, frame log and standby
// pool. The facade does not import this package, so these tests import
// it.

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"potemkin"
	"potemkin/internal/core"
	"potemkin/internal/fault"
	"potemkin/internal/guest"
	"potemkin/internal/ingest"
	"potemkin/internal/metrics"
	"potemkin/internal/netsim"
	"potemkin/internal/scenario"
	"potemkin/internal/score"
	"potemkin/internal/sim"
	"potemkin/internal/telescope"
)

// spec is one run, the same in every mode. Its Options build the
// engine through Options.EngineConfig; their EventLog, TraceOut and
// EpochLog only mark the artifact as wanted, and Metrics adds a
// registry.
type spec struct {
	opts     potemkin.Options
	tune     func(*core.ShardEngineConfig) // what Options cannot say
	src      func() telescope.Source       // what is replayed, a new source each run; with opts.Scenario, its compiled plan's records
	inject   []*netsim.Packet              // enter at the first barrier
	runFor   time.Duration                 // simulated time run after the replay
	faults   *fault.Config
	adaptive int           // the runner's lookahead cells per epoch at most; 0 keeps its default
	cut      int64         // recovered: bytes sent to slot 0 before its connection is cut
	progress time.Duration // the progress observer's interval; 0 records no ticks
	files    bool          // capture and checkpoint into a directory tree per run

	// Cluster modes: worker slots (2 when 0), hot standbys, and a change
	// to the coordinator's config. With relay, slot 0's worker dials the
	// address relay returns for the coordinator's, and one more worker
	// stands by; recovered relays through a cut.
	slots, standbys int
	coord           func(*Config)
	relay           func(t *testing.T, addr string) string
}

// run is what one mode's run left behind: each artifact by name.
// Adding an artifact is one line in finish or close.
type run struct {
	mode    string
	art     map[string][]byte
	totals  core.Totals
	ticks   []tick
	samples []metrics.EpochSample // the epoch log, wall times and all
	reg     *metrics.Registry
	h       *clusterHarness // cluster modes: the coordinator, closed

	sp             *spec
	plan           *scenario.Plan
	ev, tr, epochs bytes.Buffer
	dir            string
}

// tick is one progress observation: the barrier clock, the totals and
// the registry (epoch_* aside) there.
type tick struct {
	now         sim.Time
	totals, reg string
}

// runModes runs sp in each mode, in order, and returns their artifact
// sets. The modes:
//   - seq: the shard engine, its epochs on the caller's goroutine;
//   - par: the shard engine, a goroutine per shard;
//   - cluster: a coordinator over in-process workers on loopback TCP;
//   - recovered: cluster, with slot 0's connection cut mid-run and its
//     shards recovered onto a standby;
//   - facade: the facade's RunScenario with a scenario and Replay
//     without, its shards on goroutines when it has several;
//   - wire: the facade's Serve, the records sent over loopback UDP in
//     lossless chunks. With opts.Wire, its listener shards as the spec
//     asks, and its capture is one more artifact, files/wire.pcap.
//
// The facade modes report progress through WithProgress, which observes
// the driving call, so they run specs without barrier injections,
// faults, engine changes or a registry, and without ticks past Replay.
//
// After each, the process's goroutines and open descriptors come back
// to what they were before it.
func runModes(t *testing.T, sp spec, modes ...string) []*run {
	t.Helper()
	var out []*run
	for _, mode := range modes {
		if err := sp.check(mode); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		g, fds := resources()
		var r *run
		switch mode {
		case "seq", "par":
			r = runEngine(t, sp, mode)
		case "cluster", "recovered":
			r = runCluster(t, sp, mode)
		case "facade":
			r = runFacade(t, sp)
		case "wire":
			r = runWire(t, sp)
		default:
			t.Fatalf("no mode %q", mode)
		}
		requireNoLeak(t, mode, g, fds)
		out = append(out, r)
	}
	return out
}

// check rejects a mode sp asks for what it cannot take.
func (sp *spec) check(mode string) error {
	switch {
	case mode == "par" && sp.opts.GatewayShards < 2:
		return fmt.Errorf("runs a goroutine per shard and the spec has %d", sp.opts.GatewayShards)
	case mode == "recovered" && sp.cut <= 0:
		return fmt.Errorf("cuts slot 0 and the spec sets no cut")
	case (mode == "facade" || mode == "wire") && (sp.inject != nil || sp.faults != nil || sp.tune != nil || sp.opts.Metrics):
		return fmt.Errorf("runs Options alone: no barrier injections, faults, engine changes or registry")
	case (mode == "facade" || mode == "wire") && sp.progress > 0 && sp.runFor > 0:
		return fmt.Errorf("observes progress through WithProgress, which RunFor does not take")
	case mode == "wire" && sp.opts.Scenario != nil:
		return fmt.Errorf("serves records, not a scenario")
	}
	return nil
}

// engine is the engine configuration sp runs, sinks and files aside.
func (sp spec) engine() (core.ShardEngineConfig, error) {
	ec, err := sp.opts.EngineConfig()
	if err != nil {
		return ec, err
	}
	ec.Fault = sp.faults
	if sp.tune != nil {
		sp.tune(&ec)
	}
	return ec, nil
}

// newRun prepares a run of sp in mode and returns it with the engine
// configuration writing into its sinks and directories.
func newRun(t *testing.T, sp *spec, mode string) (*run, core.ShardEngineConfig) {
	t.Helper()
	r := &run{mode: mode, art: map[string][]byte{}, sp: sp}
	ec, err := sp.engine()
	if err != nil {
		t.Fatal(err)
	}
	if sp.opts.Scenario != nil {
		if r.plan, err = scenario.Compile(sp.opts.Scenario, ec.Seed, ec.Gateway.Space); err != nil {
			t.Fatal(err)
		}
	}
	if sp.opts.EventLog != nil {
		ec.EventLog = &r.ev
	}
	if sp.opts.TraceOut != nil {
		ec.TraceOut = &r.tr
	}
	if sp.opts.EpochLog != nil {
		ec.EpochLog = &r.epochs
	}
	if sp.opts.Metrics {
		r.reg = metrics.NewRegistry()
		ec.Metrics = r.reg
	}
	if sp.files {
		r.dir = t.TempDir()
		ec.CaptureDir = filepath.Join(r.dir, "capture")
		ec.CheckpointDir = filepath.Join(r.dir, "checkpoints")
	}
	return r, ec
}

// source is the record stream sp replays and the epilogue after it:
// the scenario's settle period, or 1 ms.
func (r *run) source() (telescope.Source, time.Duration) {
	if r.plan != nil {
		return &telescope.SliceSource{Recs: r.plan.Records}, r.plan.Settle
	}
	return r.sp.src(), time.Millisecond
}

// records is a spec's src replaying recs.
func records(recs []telescope.Record) func() telescope.Source {
	return func() telescope.Source { return &telescope.SliceSource{Recs: recs} }
}

// readRecords decodes a pcap savefile, every frame of which must parse.
func readRecords(t *testing.T, pcap []byte) []telescope.Record {
	t.Helper()
	src, err := ingest.NewPcapSource(bytes.NewReader(pcap))
	if err != nil {
		t.Fatal(err)
	}
	var recs []telescope.Record
	for {
		var rec telescope.Record
		if err := src.Read(&rec); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	if src.Skipped != 0 {
		t.Fatalf("%d frames of the pcap do not parse", src.Skipped)
	}
	return recs
}

// observe is the progress observer of every mode.
func (r *run) observe(t *testing.T) func(sim.Time, core.Totals) {
	return func(now sim.Time, tot core.Totals) {
		tk := tick{now: now, totals: string(mustJSON(t, tot))}
		if r.reg != nil {
			tk.reg = string(registryJSON(t, r.reg))
		}
		r.ticks = append(r.ticks, tk)
	}
}

// finish records the artifacts of a run that has ended: its totals,
// their Stats and Snapshot, the packets it injected, its fault log, the
// registry and the scorecard.
func (r *run) finish(t *testing.T, now sim.Time, tot core.Totals, injected int, faults []string) {
	t.Helper()
	r.totals = tot
	r.art["totals"] = mustJSON(t, tot)
	r.art["stats"] = mustJSON(t, potemkin.StatsOf(time.Duration(now), tot))
	snap, err := json.MarshalIndent(potemkin.SnapshotOf(time.Duration(now), tot), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	r.art["snapshot"] = snap
	r.art["injected"] = []byte(strconv.Itoa(injected))
	r.art["faults"] = []byte(strings.Join(faults, "\n"))
	if r.reg != nil {
		r.art["registry"] = registryJSON(t, r.reg)
	}
	if r.plan != nil {
		var card bytes.Buffer
		if err := score.Compute(r.plan.Facts(r.sp.opts.Policy.String()), &tot).WriteJSON(&card); err != nil {
			t.Fatal(err)
		}
		r.art["scorecard"] = card.Bytes()
	}
}

// close records the artifacts a run's sinks hold once it is closed:
// the event log, the trace, the epoch log without wall times, the
// progress ticks, and every capture and checkpoint file.
func (r *run) close(t *testing.T) {
	t.Helper()
	if r.sp.opts.EventLog != nil {
		r.art["events"] = r.ev.Bytes()
	}
	if r.sp.opts.TraceOut != nil {
		r.art["trace"] = r.tr.Bytes()
	}
	if r.sp.opts.EpochLog != nil {
		var err error
		if r.samples, err = metrics.ReadEpochs(&r.epochs); err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		for _, s := range r.samples {
			fmt.Fprintf(&b, "%d %d %d msgs=%d ingress=%d\n", s.Seq, s.StartNS, s.EndNS, s.ExchangeMsgs, s.IngressFrames)
		}
		r.art["epochs"] = b.Bytes()
	}
	if r.sp.progress > 0 {
		var b bytes.Buffer
		for _, tk := range r.ticks {
			fmt.Fprintf(&b, "%d %s %s\n", tk.now, tk.totals, tk.reg)
		}
		r.art["ticks"] = b.Bytes()
	}
	if r.dir != "" {
		err := filepath.WalkDir(r.dir, func(path string, e fs.DirEntry, err error) error {
			if err != nil || e.IsDir() {
				return err
			}
			b, err := os.ReadFile(path)
			rel, _ := filepath.Rel(r.dir, path)
			r.art["files/"+filepath.ToSlash(rel)] = b
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// requireSame fails t when two runs' artifacts, those named in skip
// aside, differ, naming the first artifact in which they part and the
// byte where.
func requireSame(t *testing.T, a, b *run, skip ...string) {
	t.Helper()
	names := slices.Sorted(maps.Keys(a.art))
	for name := range b.art {
		if _, ok := a.art[name]; !ok {
			names = append(names, name)
		}
	}
	for _, name := range names {
		if slices.Contains(skip, name) {
			continue
		}
		x, inA := a.art[name]
		y, inB := b.art[name]
		if inA != inB {
			has, lacks := a.mode, b.mode
			if inB {
				has, lacks = b.mode, a.mode
			}
			t.Errorf("%s: %s has it and %s does not", name, has, lacks)
			return
		}
		if bytes.Equal(x, y) {
			continue
		}
		i := 0
		for i < len(x) && i < len(y) && x[i] == y[i] {
			i++
		}
		excerpt := func(s []byte) []byte { return s[max(0, i-40):min(len(s), i+80)] }
		t.Errorf("%s and %s part in %s at byte %d (%d and %d bytes):\n%s: %q\n%s: %q",
			a.mode, b.mode, name, i, len(x), len(y), a.mode, excerpt(x), b.mode, excerpt(y))
		return
	}
}

// runEngine runs sp on a shard engine, the oracle of every comparison.
func runEngine(t *testing.T, sp spec, mode string) *run {
	t.Helper()
	r, ec := newRun(t, &sp, mode)
	ec.Parallel = mode == "par"
	eng, err := core.NewShardEngine(ec)
	if err != nil {
		t.Fatalf("NewShardEngine: %v", err)
	}
	if sp.adaptive != 0 {
		eng.SetAdaptive(sp.adaptive)
	}
	for _, pkt := range sp.inject {
		eng.InjectBarrier(pkt.Clone())
	}
	if sp.progress > 0 {
		eng.SetProgress(sp.progress, r.observe(t))
	}
	src, epilogue := r.source()
	injected, err := eng.Replay(src, nil, epilogue)
	if err != nil {
		t.Fatalf("%s replay: %v", mode, err)
	}
	eng.RunFor(sp.runFor)
	r.finish(t, eng.Now(), eng.Totals(), injected, eng.FaultLog())
	if err := eng.Close(); err != nil {
		t.Fatalf("%s close: %v", mode, err)
	}
	r.close(t)
	return r
}

// runCluster runs sp through a coordinator over sp's slots and
// standbys. Recovered, slot 0's connection is cut once sp.cut bytes
// have gone to its worker, and the standby takes its shards over.
func runCluster(t *testing.T, sp spec, mode string) *run {
	t.Helper()
	if mode == "recovered" {
		sp.relay = func(t *testing.T, addr string) string { return cutRelay(t, addr, sp.cut) }
	}
	h := startCluster(t, sp, mode)
	workers := h.c.workers + sp.standbys
	if sp.relay != nil {
		h.addWorker(sp.relay(t, h.c.Addr().String()), nil)
		h.awaitStandby()
	}
	h.connect(t, workers)
	r, err := h.drive(t)
	h.shutdown(t)
	if err != nil {
		t.Fatalf("%s run: %v", mode, err)
	}
	if n := h.c.Recoveries(); sp.relay != nil && n == 0 || sp.relay == nil && sp.faults == nil && n != 0 {
		t.Errorf("%s: %d recoveries: %q", mode, n, h.c.RecoveryEvents())
	}
	return r
}

// facade builds the farm of a facade mode from sp's Options, writing
// into r's sinks and directories, its shards on goroutines when it has
// several, and returns it with the progress option recording r's ticks.
func (r *run) facade(t *testing.T, ec core.ShardEngineConfig, wire *potemkin.WireOptions) (*potemkin.Honeyfarm, potemkin.ReplayOption) {
	t.Helper()
	opts := r.sp.opts
	opts.Parallel = opts.GatewayShards > 1
	opts.EventLog, opts.TraceOut, opts.EpochLog = ec.EventLog, ec.TraceOut, ec.EpochLog
	opts.CaptureDir, opts.CheckpointDir = ec.CaptureDir, ec.CheckpointDir
	opts.Wire = wire
	hf := potemkin.MustNew(opts)
	if r.sp.adaptive != 0 {
		hf.Internals().Engine.SetAdaptive(r.sp.adaptive)
	}
	observe := r.observe(t)
	return hf, potemkin.WithProgress(r.sp.progress, func(potemkin.Stats) {
		now, tot := hf.Totals()
		observe(sim.Time(now), tot)
	})
}

// runFacade runs sp through the facade: RunScenario with a scenario,
// whose scorecard is the artifact, and Replay without, then RunFor.
func runFacade(t *testing.T, sp spec) *run {
	t.Helper()
	r, ec := newRun(t, &sp, "facade")
	hf, progress := r.facade(t, ec, nil)
	defer hf.Close()
	var (
		injected int
		card     *potemkin.Scorecard
		err      error
	)
	if r.plan != nil {
		card, err = hf.RunScenario(progress)
		injected = len(r.plan.Records) // all of them, unless it failed
	} else {
		injected, err = hf.Replay(sp.src(), progress)
	}
	if err != nil {
		t.Fatalf("facade run: %v", err)
	}
	hf.RunFor(sp.runFor)
	now, tot := hf.Totals()
	r.finish(t, sim.Time(now), tot, injected, nil)
	if card != nil {
		var b bytes.Buffer
		if err := card.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		r.art["scorecard"] = b.Bytes()
	}
	hf.Close()
	r.close(t)
	return r
}

// runWire serves sp's records to a facade farm over loopback UDP, each
// chunk of 1024 consumed before the next leaves, through the pcap
// codec, as a wire capture replays.
func runWire(t *testing.T, sp spec) *run {
	t.Helper()
	r, ec := newRun(t, &sp, "wire")
	w := potemkin.WireOptions{Addr: "127.0.0.1:0"}
	if sp.opts.Wire != nil {
		w = *sp.opts.Wire
		if r.dir == "" {
			r.dir = t.TempDir()
		}
		w.Capture = filepath.Join(r.dir, "wire.pcap")
	}
	hf, progress := r.facade(t, ec, &w)
	defer hf.Close()
	var pcap bytes.Buffer
	if _, err := ingest.WritePcap(&pcap, sp.src()); err != nil {
		t.Fatal(err)
	}
	recs := readRecords(t, pcap.Bytes())

	srv, err := hf.StartWire()
	if err != nil {
		t.Fatalf("StartWire: %v", err)
	}
	defer srv.Stop()
	type served struct {
		ws  potemkin.WireStats
		err error
	}
	done := make(chan served, 1)
	go func() {
		ws, err := srv.Serve(progress)
		done <- served{ws, err}
	}()
	s, err := ingest.DialWire(srv.Addr().String(), 1, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var sent uint64
	for len(recs) > 0 {
		chunk := recs[:min(len(recs), 1024)]
		recs = recs[len(chunk):]
		n, _, err := ingest.Replay(s, &telescope.SliceSource{Recs: chunk}, ingest.ReplayOptions{MaxRate: true})
		if err != nil {
			t.Fatal(err)
		}
		sent += n
		waitFor(t, func() bool { return srv.Stats().Ingest.Delivered == sent })
	}
	waitFor(t, func() bool { return srv.Stats().Ingest.Received == sent })
	srv.Stop()
	var res served
	select {
	case res = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Serve did not finish")
	}
	if res.err != nil {
		t.Fatalf("Serve: %v", res.err)
	}
	// The reader accounts sequence numbers before it shards, so a
	// lossless feed reports no gap however many queues it is split over.
	if ig := res.ws.Ingest; ig.Dropped != 0 || ig.FrameErrors != 0 || ig.SeqGaps != 0 || ig.Delivered != sent {
		t.Fatalf("the transport lost frames, so the run is not the records' (%d sent): %+v", sent, ig)
	}
	hf.RunFor(sp.runFor)
	now, tot := hf.Totals()
	r.finish(t, sim.Time(now), tot, res.ws.Injected, nil)
	hf.Close()
	r.close(t)
	return r
}

// waitFor polls cond for up to ten seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 10s")
		}
		time.Sleep(time.Millisecond)
	}
}

// clusterHarness is a coordinator and its in-process workers over
// loopback TCP, running one spec. errs holds each worker's return, in
// the order addWorker started them; read it after shutdown.
type clusterHarness struct {
	c    *Coordinator
	r    *run
	ec   core.ShardEngineConfig // the workers'
	wg   sync.WaitGroup
	mu   sync.Mutex // orders the workers' writes to errs
	errs []error
	logf func(format string, args ...any)
}

// startCluster starts a coordinator for sp's slots, recording into a
// run of mode. addWorker connects workers and waitReady assigns them.
func startCluster(t *testing.T, sp spec, mode string) *clusterHarness {
	t.Helper()
	r, ec := newRun(t, &sp, mode)
	// The workers write the files; the coordinator asks for the event
	// log and trace, which come back with the results.
	wec := ec
	wec.EventLog, wec.TraceOut, wec.EpochLog, wec.Metrics = nil, nil, nil, nil
	wec.Parallel = ec.Shards > 1 // -race exercises the workers' domain isolation
	ec.CaptureDir, ec.CheckpointDir = "", ""
	if ec.EventLog != nil {
		ec.EventLog = io.Discard
	}
	if ec.TraceOut != nil {
		ec.TraceOut = io.Discard
	}
	cfg := Config{
		Engine:            ec,
		ConfigTag:         testTag,
		ListenAddr:        "127.0.0.1:0",
		Workers:           cmp.Or(sp.slots, 2),
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  5 * time.Second,
		RecoveryWait:      10 * time.Second,
		Logf:              t.Logf,
	}
	if sp.coord != nil {
		sp.coord(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := c.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	r.h = &clusterHarness{c: c, r: r, ec: wec, logf: t.Logf}
	return r.h
}

// addWorker runs one more in-process worker of the spec's engine,
// dialing addr, with tweak, if not nil, applied to its config.
func (h *clusterHarness) addWorker(addr string, tweak func(*WorkerConfig)) {
	h.mu.Lock()
	i := len(h.errs)
	h.errs = append(h.errs, nil)
	h.mu.Unlock()
	wc := WorkerConfig{
		Addr:              addr,
		Engine:            h.ec,
		ConfigTag:         testTag,
		Name:              fmt.Sprintf("w%d", i),
		HeartbeatInterval: 50 * time.Millisecond,
		Logf:              h.logf,
	}
	if tweak != nil {
		tweak(&wc)
	}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		err := RunWorker(wc)
		h.mu.Lock()
		h.errs[i] = err
		h.mu.Unlock()
	}()
}

// awaitStandby returns once the coordinator holds a standby: the first
// worker to connect, which then takes slot 0 from waitReady.
func (h *clusterHarness) awaitStandby() {
	for standbys := 0; standbys == 0; time.Sleep(time.Millisecond) {
		h.c.mu.Lock()
		standbys = len(h.c.standby)
		h.c.mu.Unlock()
	}
}

// connect adds n workers dialing the coordinator and assigns the
// connected ones to the slots.
func (h *clusterHarness) connect(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		h.addWorker(h.c.Addr().String(), nil)
	}
	h.waitReady(t)
}

// waitReady assigns the connected workers to the slots.
func (h *clusterHarness) waitReady(t *testing.T) {
	t.Helper()
	if err := h.c.WaitReady(30 * time.Second); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
}

// drive runs the spec through the cluster and records its results.
func (h *clusterHarness) drive(t *testing.T) (*run, error) {
	t.Helper()
	r, sp := h.r, h.r.sp
	if sp.adaptive != 0 {
		h.c.runner.SetAdaptive(sp.adaptive)
	}
	for _, pkt := range sp.inject {
		h.c.Inject(pkt)
	}
	if sp.progress > 0 {
		h.c.SetProgress(sp.progress, r.observe(t))
	}
	src, epilogue := r.source()
	injected, err := h.c.Replay(src, nil, epilogue)
	if err != nil {
		return r, err
	}
	h.c.RunFor(sp.runFor)
	res, err := h.c.Results()
	if err != nil {
		return r, err
	}
	r.finish(t, res.Now, res.Totals, injected, res.FaultLog)
	r.ev.Write(res.Events)
	r.tr.Write(res.Trace)
	return r, nil
}

// shutdown closes the coordinator, waits for every worker to return,
// and records the artifacts the closed run holds.
func (h *clusterHarness) shutdown(t *testing.T) {
	t.Helper()
	h.c.Close()
	h.wg.Wait()
	h.r.close(t)
}

// cutRelay relays one worker connection to the coordinator at addr and
// cuts it both ways once n bytes have gone to the worker. It returns
// the address for the worker to dial.
func cutRelay(t *testing.T, addr string, n int64) string {
	return relay(t, addr, func(wc, cc net.Conn) { io.CopyN(plain{wc}, cc, n) },
		func(wc, cc net.Conn) { io.Copy(plain{cc}, wc) })
}

// plain hides a connection's ReadFrom from io.Copy: copying from one
// TCP connection into another splices through pipes that a pool keeps
// open after the copy, which the leak check would count.
type plain struct{ io.Writer }

// relay accepts one worker connection on a fresh loopback port, dials
// the coordinator at addr, and runs toWorker and toCoord on the pair,
// one copying each way. Whichever returns first closes both
// connections, ending the other. It returns the address for the worker
// to dial.
func relay(t *testing.T, addr string, toWorker, toCoord func(wc, cc net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		wc, err := ln.Accept()
		ln.Close()
		if err != nil {
			return
		}
		cc, err := net.Dial("tcp", addr)
		if err != nil {
			wc.Close()
			return
		}
		var once sync.Once
		var both sync.WaitGroup
		end := func(copy func(wc, cc net.Conn)) {
			defer both.Done()
			copy(wc, cc)
			once.Do(func() { wc.Close(); cc.Close() })
		}
		both.Add(2)
		go end(toCoord)
		end(toWorker)
		both.Wait()
	}()
	return ln.Addr().String()
}

// resources counts the process's goroutines and, on Linux, its open
// descriptors (-1 elsewhere).
func resources() (goroutines, fds int) {
	warmPoller.Do(func() {
		// The network poller's own descriptors open with the first
		// socket and stay: open them before any baseline is taken.
		if ln, err := net.Listen("tcp", "127.0.0.1:0"); err == nil {
			ln.Close()
		}
	})
	fds = -1
	if runtime.GOOS == "linux" {
		if ents, err := os.ReadDir("/proc/self/fd"); err == nil {
			fds = len(ents)
		}
	}
	return runtime.NumGoroutine(), fds
}

var warmPoller sync.Once

// requireNoLeak fails t unless, within five seconds, the goroutines and
// open descriptors are back to at most g and fds.
func requireNoLeak(t *testing.T, mode string, g, fds int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ng, nfds := resources()
		if ng <= g && nfds <= fds {
			return
		}
		if time.Now().After(deadline) {
			var open []string
			ents, _ := os.ReadDir("/proc/self/fd")
			for _, e := range ents {
				target, _ := os.Readlink(filepath.Join("/proc/self/fd", e.Name()))
				open = append(open, target)
			}
			buf := make([]byte, 1<<16)
			t.Errorf("%s left %d goroutines and %d descriptors open, %d and %d before it ran: %q\n%s",
				mode, ng, nfds, g, fds, open, buf[:runtime.Stack(buf, true)])
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// registryJSON is the registry's points without the epoch_* profiler
// series: their timings are wall-clock, and a cluster's are the
// coordinator's, not the workers' (TestClusterEpochProfileMatchesEngine
// checks its counters).
func registryJSON(t *testing.T, reg *metrics.Registry) []byte {
	var pts []metrics.Point
	for _, p := range reg.Snapshot() {
		if !strings.HasPrefix(p.Name, "epoch") {
			pts = append(pts, p)
		}
	}
	return mustJSON(t, pts)
}

const testTag = "cluster-test-scenario"

// standard is the cluster tests' run: four shards over eight servers of
// multi-stage guests, four exploits entering at the first barrier on
// different shards so reflection traffic crosses domains and
// processes, a second of background radiation at 300 pps, and progress
// ticks every 100 ms, with the event log and the trace on.
func standard(t *testing.T, seed uint64) spec {
	return spec{
		opts:     standardOptions(seed),
		tune:     limitReflections,
		src:      records(testRecords(t, seed, time.Second, 300)),
		inject:   exploitPackets(guest.MultiStageDNS("update.evil.example")),
		progress: 100 * time.Millisecond,
	}
}

func standardOptions(seed uint64) potemkin.Options {
	return potemkin.Options{
		Seed:          seed,
		GatewayShards: 4,
		Servers:       8,
		Policy:        potemkin.InternalReflect,
		IdleTimeout:   2 * time.Second,
		Guest:         potemkin.GuestMultiStage,
		EventLog:      io.Discard,
		TraceOut:      io.Discard,
	}
}

// limitReflections caps the reflection cascade, to keep CI fast.
func limitReflections(ec *core.ShardEngineConfig) { ec.Gateway.ReflectionLimit = 128 }

// testEngineConfig is the standard run's engine, its domains on
// goroutines, as every worker of it builds.
func testEngineConfig(seed uint64, faults *fault.Config) core.ShardEngineConfig {
	ec, err := spec{opts: standardOptions(seed), tune: limitReflections, faults: faults}.engine()
	if err != nil {
		panic(err)
	}
	ec.Parallel = true
	return ec
}

// exploitPackets seeds four infections spread across the shards.
func exploitPackets(p *guest.Profile) []*netsim.Packet {
	payload := p.ExploitPayload(0)
	var pkts []*netsim.Packet
	for i := 0; i < 4; i++ {
		src := netsim.MustParseAddr(fmt.Sprintf("198.51.100.%d", 10+i))
		dst := netsim.MustParseAddr(fmt.Sprintf("10.5.7.%d", 20+i))
		pkt := netsim.TCPSyn(src, dst, 40000, p.ScanDstPort, 1)
		pkt.Flags |= netsim.FlagPSH
		pkt.Payload = payload
		pkts = append(pkts, pkt)
	}
	return pkts
}

// testRecords is dur of background radiation at rate over the default
// monitored space.
func testRecords(t testing.TB, seed uint64, dur time.Duration, rate float64) []telescope.Record {
	t.Helper()
	gcfg := telescope.DefaultGenConfig()
	gcfg.Duration = dur
	gcfg.Rate = rate
	gcfg.Seed = seed
	recs, err := telescope.Generate(gcfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return recs
}
