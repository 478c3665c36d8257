package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"potemkin/internal/core"
	"potemkin/internal/farm"
	"potemkin/internal/fault"
	"potemkin/internal/gateway"
	"potemkin/internal/guest"
	"potemkin/internal/ingest"
	"potemkin/internal/metrics"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/telescope"
)

// TestMain doubles as the worker-process entry point for the SIGKILL
// recovery test: when the env var is set, this test binary IS a cluster
// worker (re-exec'd by the test), not a test run.
func TestMain(m *testing.M) {
	if addr := os.Getenv("POTEMKIN_CLUSTER_WORKER_ADDR"); addr != "" {
		runWorkerChild(addr)
		return
	}
	os.Exit(m.Run())
}

func runWorkerChild(addr string) {
	var seed uint64
	fmt.Sscanf(os.Getenv("POTEMKIN_CLUSTER_WORKER_SEED"), "%d", &seed)
	err := RunWorker(WorkerConfig{
		Addr:      addr,
		Engine:    testEngineConfig(seed, nil),
		ConfigTag: testTag,
		Name:      os.Getenv("POTEMKIN_CLUSTER_WORKER_NAME"),
	})
	if err != nil && !errors.Is(err, ErrKilled) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}

const testTag = "cluster-test-scenario"

// testEngineConfig is the shared SPMD scenario: both the oracle engine
// and every worker (in-process or re-exec'd) build exactly this.
func testEngineConfig(seed uint64, faults *fault.Config) core.ShardEngineConfig {
	gc := gateway.DefaultConfig()
	gc.IdleTimeout = 2 * time.Second
	gc.ReflectionLimit = 128
	fc := farm.DefaultConfig()
	fc.Servers = 8
	fc.Profile = guest.MultiStageDNS("update.evil.example")
	return core.ShardEngineConfig{
		Shards:   4,
		Parallel: true, // workers run their domains on goroutines (-race exercises isolation)
		Seed:     seed,
		Gateway:  gc,
		Farm:     fc,
		Fault:    faults,
		// Markers only: the coordinator requests event/trace collection
		// when these are non-nil; workers buffer and ship the bytes.
		EventLog: io.Discard,
		TraceOut: io.Discard,
	}
}

// exploitPackets seeds four infections spread across the shards so
// reflection traffic crosses domain (and process) boundaries.
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

func testRecords(t *testing.T, seed uint64) []telescope.Record {
	t.Helper()
	gcfg := telescope.DefaultGenConfig()
	gcfg.Space = gateway.DefaultConfig().Space
	gcfg.Duration = time.Second
	gcfg.Rate = 300
	gcfg.Seed = seed
	recs, err := telescope.Generate(gcfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return recs
}

// runOut is everything observable a run produces, cluster or oracle.
type runOut struct {
	totals   core.Totals
	injected int
	now      sim.Time
	faults   []string
	events   []byte
	trace    []byte
	ticks    []tick
}

// progressEvery is the progress observer's interval on both sides of
// every cluster-vs-oracle comparison, so compareRuns compares the ticks
// too.
const progressEvery = 100 * time.Millisecond

// tick is one progress observation: the barrier clock and the summed
// totals there.
type tick struct {
	now    sim.Time
	totals core.Totals
}

// observe returns a progress observer appending to ticks.
func observe(ticks *[]tick) func(sim.Time, core.Totals) {
	return func(now sim.Time, t core.Totals) { *ticks = append(*ticks, tick{now, t}) }
}

// runOracle executes the scenario on a single-process sequential
// ShardEngine — the byte-equality baseline.
func runOracle(t *testing.T, seed uint64, faults *fault.Config, extra time.Duration) runOut {
	t.Helper()
	return runOracleConfig(t, testEngineConfig(seed, faults), 64, extra)
}

// runOracleConfig is runOracle over a given scenario configuration, at
// adaptive lookahead cells per epoch at most (64 is the runner's
// default).
func runOracleConfig(t *testing.T, cfg core.ShardEngineConfig, adaptive int, extra time.Duration) runOut {
	t.Helper()
	seed := cfg.Seed
	cfg.Parallel = false
	var ev, tr bytes.Buffer
	cfg.EventLog, cfg.TraceOut = &ev, &tr
	eng, err := core.NewShardEngine(cfg)
	if err != nil {
		t.Fatalf("NewShardEngine: %v", err)
	}
	eng.SetAdaptive(adaptive)
	for _, pkt := range exploitPackets(cfg.Farm.Profile) {
		eng.InjectBarrier(pkt)
	}
	var ticks []tick
	eng.SetProgress(progressEvery, observe(&ticks))
	injected, err := eng.Replay(&telescope.SliceSource{Recs: testRecords(t, seed)}, nil, time.Millisecond)
	if err != nil {
		t.Fatalf("oracle replay: %v", err)
	}
	eng.RunFor(extra)
	out := runOut{
		totals: eng.Totals(), injected: injected, now: eng.Now(), faults: eng.FaultLog(), ticks: ticks,
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("oracle close: %v", err)
	}
	out.events, out.trace = ev.Bytes(), tr.Bytes()
	return out
}

// clusterHarness runs a coordinator plus in-process workers over TCP
// loopback. errs holds each worker's return, in the order addWorker
// started them; read it after shutdown.
type clusterHarness struct {
	c       *Coordinator
	wg      sync.WaitGroup
	mu      sync.Mutex // orders the workers' writes to errs
	errs    []error
	workers int
	logf    func(format string, args ...any)
}

func startCluster(t *testing.T, seed uint64, faults *fault.Config, workers, standbys int, tweak func(cfg *Config)) *clusterHarness {
	t.Helper()
	h := newCluster(t, seed, faults, workers, tweak)
	for i := 0; i < workers+standbys; i++ {
		h.addWorker(seed, faults, h.c.Addr().String())
	}
	h.waitReady(t)
	return h
}

// newCluster starts a coordinator for workers worker slots; addWorker
// connects the workers and waitReady assigns them.
func newCluster(t *testing.T, seed uint64, faults *fault.Config, workers int, tweak func(cfg *Config)) *clusterHarness {
	t.Helper()
	cfg := Config{
		Engine:            testEngineConfig(seed, faults),
		ConfigTag:         testTag,
		ListenAddr:        "127.0.0.1:0",
		Workers:           workers,
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  5 * time.Second,
		RecoveryWait:      10 * time.Second,
		Logf:              t.Logf,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := c.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return &clusterHarness{c: c, workers: workers, logf: t.Logf}
}

// addWorker runs one more in-process worker, dialing addr; its error
// lands in h.errs once it returns.
func (h *clusterHarness) addWorker(seed uint64, faults *fault.Config, addr string) {
	h.addWorkerWith(seed, faults, addr, nil)
}

// addWorkerWith is addWorker with tweak, if not nil, applied to the
// worker's config.
func (h *clusterHarness) addWorkerWith(seed uint64, faults *fault.Config, addr string, tweak func(*WorkerConfig)) {
	h.mu.Lock()
	i := len(h.errs)
	h.errs = append(h.errs, nil)
	h.mu.Unlock()
	wc := WorkerConfig{
		Addr:              addr,
		Engine:            testEngineConfig(seed, faults),
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

// waitReady assigns the connected workers to the slots.
func (h *clusterHarness) waitReady(t *testing.T) {
	t.Helper()
	if err := h.c.WaitReady(30 * time.Second); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
}

// drive runs the standard scenario through the cluster and merges the
// results into the comparable form.
func (h *clusterHarness) drive(t *testing.T, seed uint64, extra time.Duration) (runOut, error) {
	t.Helper()
	for _, pkt := range exploitPackets(testEngineConfig(seed, nil).Farm.Profile) {
		h.c.Inject(pkt)
	}
	var ticks []tick
	h.c.SetProgress(progressEvery, observe(&ticks))
	injected, err := h.c.Replay(&telescope.SliceSource{Recs: testRecords(t, seed)}, nil, time.Millisecond)
	if err != nil {
		return runOut{}, err
	}
	h.c.RunFor(extra)
	res, err := h.c.Results()
	if err != nil {
		return runOut{}, err
	}
	return runOut{
		totals: res.Totals, injected: injected, now: res.Now, faults: res.FaultLog,
		events: res.Events, trace: res.Trace, ticks: ticks,
	}, nil
}

func (h *clusterHarness) shutdown(t *testing.T) {
	t.Helper()
	h.c.Close()
	h.wg.Wait()
}

// compareRuns asserts two runs are observably identical, bytes
// included.
func compareRuns(t *testing.T, want, got runOut, label string) {
	t.Helper()
	if !reflect.DeepEqual(want.totals, got.totals) {
		t.Errorf("%s: totals differ:\nwant %+v\ngot  %+v", label, want.totals, got.totals)
	}
	if want.injected != got.injected {
		t.Errorf("%s: injected packets differ: want %d got %d", label, want.injected, got.injected)
	}
	if want.now != got.now {
		t.Errorf("%s: final clock differs: want %v got %v", label, want.now, got.now)
	}
	if !reflect.DeepEqual(want.faults, got.faults) {
		t.Errorf("%s: fault logs differ:\nwant %q\ngot  %q", label, want.faults, got.faults)
	}
	if !bytes.Equal(want.events, got.events) {
		t.Errorf("%s: event-log bytes differ (%d vs %d bytes)", label, len(want.events), len(got.events))
	}
	if !bytes.Equal(want.trace, got.trace) {
		t.Errorf("%s: trace bytes differ (%d vs %d bytes)", label, len(want.trace), len(got.trace))
	}
	if !reflect.DeepEqual(want.ticks, got.ticks) {
		i := 0
		for i < len(want.ticks) && i < len(got.ticks) && reflect.DeepEqual(want.ticks[i], got.ticks[i]) {
			i++
		}
		t.Errorf("%s: progress ticks differ: %d vs %d ticks, parting at tick %d", label, len(want.ticks), len(got.ticks), i)
	}
}

// TestClusterMatchesSequential is the tentpole equivalence proof: the
// same scenario on one worker process or split across two (in-process
// here, but over real TCP and the real protocol) produces
// byte-identical stats, event log, and trace to the single-process
// sequential oracle. One worker hosts every shard, so no cross-shard
// packet crosses the wire: the worker exchanges them all itself.
func TestClusterMatchesSequential(t *testing.T) {
	const seed = 7
	oracle := runOracle(t, seed, nil, 2*time.Second)
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			h := startCluster(t, seed, nil, workers, 0, nil)
			got, err := h.drive(t, seed, 2*time.Second)
			if err != nil {
				t.Fatalf("cluster run: %v", err)
			}
			h.shutdown(t)
			for i, werr := range h.errs {
				if werr != nil {
					t.Errorf("worker %d: %v", i, werr)
				}
			}
			compareRuns(t, oracle, got, "cluster vs sequential")
			if h.c.Recoveries() != 0 {
				t.Errorf("unexpected recoveries: %d", h.c.Recoveries())
			}
			if workers == 1 {
				for _, m := range loggedFrames(t, h.c, 0) {
					for _, in := range m.Inputs {
						if in.Kind == inputCross {
							t.Fatalf("epoch %d shipped a cross input from shard %d to shard %d to the only worker", m.Seq, in.Src, in.Dst)
						}
					}
				}
			}
		})
	}
}

// loggedFrames decodes worker slot id's frame log.
func loggedFrames(t *testing.T, c *Coordinator, id int) []epochMsg {
	t.Helper()
	var out []epochMsg
	for _, f := range c.log[id] {
		m, err := decodeEpoch(f, c.shards)
		if err != nil {
			t.Fatalf("logged frame: %v", err)
		}
		out = append(out, m)
	}
	return out
}

// epochBounds is the (start, end) sequence of a run's epochs.
type epochBounds [][2]sim.Time

// TestClusterEpochGridMatchesEngine: the cluster's epochs are the
// engine's — one runner loop over two transports — at the default
// adaptive lookahead and on the fixed grid, and the outputs stay
// byte-equal to the sequential oracle at both settings.
func TestClusterEpochGridMatchesEngine(t *testing.T) {
	const seed = 7
	for _, adaptive := range []int{64, 1} {
		t.Run(fmt.Sprintf("adaptive=%d", adaptive), func(t *testing.T) {
			cfg := testEngineConfig(seed, nil)
			var timeline bytes.Buffer
			cfg.EpochLog = &timeline
			oracle := runOracleConfig(t, cfg, adaptive, 2*time.Second)
			samples, err := metrics.ReadEpochs(&timeline)
			if err != nil {
				t.Fatal(err)
			}
			var want epochBounds
			for _, s := range samples {
				want = append(want, [2]sim.Time{sim.Time(s.StartNS), sim.Time(s.EndNS)})
			}

			var got epochBounds
			h := startCluster(t, seed, nil, 2, 0, func(c *Config) {
				c.OnEpoch = func(_ uint64, start, end sim.Time) { got = append(got, [2]sim.Time{start, end}) }
			})
			h.c.runner.SetAdaptive(adaptive)
			out, err := h.drive(t, seed, 2*time.Second)
			if err != nil {
				t.Fatalf("cluster run: %v", err)
			}
			h.shutdown(t)
			compareRuns(t, oracle, out, "cluster vs sequential")
			if len(want) == 0 {
				t.Fatal("the engine ran no epochs")
			}
			if !reflect.DeepEqual(want, got) {
				i := 0
				for i < len(want) && i < len(got) && want[i] == got[i] {
					i++
				}
				t.Errorf("cluster ran %d epochs, the engine %d; they part at epoch %d", len(got), len(want), i)
			}
		})
	}
}

// TestClusterProgressMatchesEngine: the coordinator's progress observer
// ticks at the engine's barriers with the engine's totals, on the grid
// TestClusterEpochGridMatchesEngine pins — on a clean run, across a
// worker killed mid-feed, and when a worker is lost while the
// coordinator awaits its totals, which recovers the slot onto the
// standby and asks again.
func TestClusterProgressMatchesEngine(t *testing.T) {
	const seed = 17
	for _, tc := range []struct {
		name       string
		faults     *fault.Config
		lostTotals bool
	}{
		{"clean", nil, false},
		{"killed mid-feed", killFaults(300*time.Millisecond, 0), false},
		{"lost awaiting totals", nil, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			oracle := runOracle(t, seed, tc.faults, time.Second)
			if len(oracle.ticks) < 10 {
				t.Fatalf("the engine ticked %d times in %v at every %v", len(oracle.ticks), oracle.now, progressEvery)
			}
			h := newCluster(t, seed, tc.faults, 2, nil)
			addr := h.c.Addr().String()
			workers := 3 // two slots and a standby
			if tc.lostTotals {
				// The first worker to connect takes slot 0.
				h.addWorker(seed, tc.faults, cutAtTotals(t, addr))
				for standbys := 0; standbys == 0; time.Sleep(time.Millisecond) {
					h.c.mu.Lock()
					standbys = len(h.c.standby)
					h.c.mu.Unlock()
				}
				workers--
			}
			for i := 0; i < workers; i++ {
				h.addWorker(seed, tc.faults, addr)
			}
			h.waitReady(t)
			got, err := h.drive(t, seed, time.Second)
			if err != nil {
				t.Fatalf("cluster run: %v", err)
			}
			h.shutdown(t)
			compareRuns(t, oracle, got, "cluster vs sequential")
			events := strings.Join(h.c.RecoveryEvents(), "\n")
			if recovered := h.c.Recoveries() > 0; recovered != (tc.faults != nil || tc.lostTotals) {
				t.Errorf("%d recoveries:\n%s", h.c.Recoveries(), events)
			}
			if tc.lostTotals && !strings.Contains(events, "awaiting totals") {
				t.Errorf("no worker was lost awaiting totals:\n%s", events)
			}
		})
	}
}

// cutAtTotals relays one worker connection to the coordinator at addr
// and cuts it both ways when the coordinator's first totals request
// reaches it, so the worker is lost while the coordinator awaits the
// reply. It returns the address for the worker to dial.
func cutAtTotals(t *testing.T, addr string) string {
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
		defer wc.Close()
		cc, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		defer cc.Close()
		go io.Copy(cc, wc)
		for {
			fr, err := readFrame(cc)
			if err != nil || fr.typ == msgTotals || writeFrame(wc, fr.typ, fr.payload) != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// TestLostWorkerClosesItsFiles: a worker that loses its coordinator
// connection mid-run closes its domains as RunWorker returns, as a
// results exchange does, so once it has returned each of its shards'
// capture files is flushed whole: it parses to its last record. The
// cut worker writes under a directory of its own, which the standby
// that takes its slot over does not rewrite; the worker that runs to
// the end writes under another, which must parse whole as well.
func TestLostWorkerClosesItsFiles(t *testing.T) {
	const seed = 17
	h := newCluster(t, seed, nil, 2, nil)
	addr := h.c.Addr().String()
	cutDir, keptDir := t.TempDir(), t.TempDir()
	capture := func(dir string) func(*WorkerConfig) {
		return func(wc *WorkerConfig) { wc.Engine.CaptureDir = dir }
	}
	// The first worker to connect takes slot 0.
	h.addWorkerWith(seed, nil, cutAtTotals(t, addr), capture(cutDir))
	for standbys := 0; standbys == 0; time.Sleep(time.Millisecond) {
		h.c.mu.Lock()
		standbys = len(h.c.standby)
		h.c.mu.Unlock()
	}
	h.addWorkerWith(seed, nil, addr, capture(keptDir))
	h.addWorker(seed, nil, addr) // the standby
	h.waitReady(t)
	if _, err := h.drive(t, seed, time.Second); err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	h.shutdown(t)
	if h.c.Recoveries() != 1 {
		t.Fatalf("%d recoveries, want the cut worker's one", h.c.Recoveries())
	}
	for _, dir := range []string{cutDir, keptDir} {
		files, _ := filepath.Glob(filepath.Join(dir, "shard-*", "*.pcap"))
		if len(files) != 6 {
			t.Fatalf("%s holds %d capture files, want three for each of two shards: %v", dir, len(files), files)
		}
		records := 0
		for _, name := range files {
			f, err := os.Open(name)
			if err != nil {
				t.Fatal(err)
			}
			pr, err := ingest.NewPcapReader(f)
			for err == nil {
				if _, _, err = pr.Next(); err == nil {
					records++
				}
			}
			f.Close()
			if err != io.EOF {
				t.Errorf("%s: %v", name, err)
			}
		}
		if records == 0 {
			t.Errorf("%s: no packet captured", dir)
		}
	}
}

// TestClusterRetiresWorkerSendingBadHistogram: a totals reply whose
// histogram does not fit the 64-octave layout is a bad reply like any
// other. The coordinator retires the worker and recovers its slot onto
// the standby, and the run still matches the oracle.
func TestClusterRetiresWorkerSendingBadHistogram(t *testing.T) {
	const seed = 17
	oracle := runOracle(t, seed, nil, time.Second)
	h := newCluster(t, seed, nil, 2, nil)
	defer h.shutdown(t)
	addr := h.c.Addr().String()
	// The first worker to connect takes slot 0.
	h.addWorker(seed, nil, corruptTotals(t, addr))
	for standbys := 0; standbys == 0; time.Sleep(time.Millisecond) {
		h.c.mu.Lock()
		standbys = len(h.c.standby)
		h.c.mu.Unlock()
	}
	h.addWorker(seed, nil, addr)
	h.addWorker(seed, nil, addr)
	h.waitReady(t)
	got, err := h.drive(t, seed, time.Second)
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	compareRuns(t, oracle, got, "cluster vs sequential")
	if events := strings.Join(h.c.RecoveryEvents(), "\n"); h.c.Recoveries() != 1 || !strings.Contains(events, "bad totals") {
		t.Errorf("%d recoveries, none for a bad totals reply:\n%s", h.c.Recoveries(), events)
	}
}

// corruptTotals relays one worker connection to the coordinator at addr
// and replaces the first totals reply the worker sends with one whose
// clone histogram starts below octave 0. It returns the address for the
// worker to dial.
func corruptTotals(t *testing.T, addr string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	bad := []byte(`{"Shards":[{"Shard":0,"Totals":{"Clone":[{"lo":-1,"n":1,"sum":1,"min":1,"max":1,"b":[1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}]}}]}`)
	go func() {
		wc, err := ln.Accept()
		ln.Close()
		if err != nil {
			return
		}
		defer wc.Close()
		cc, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		defer cc.Close()
		go io.Copy(wc, cc)
		for corrupted := false; ; {
			fr, err := readFrame(wc)
			if err != nil {
				return
			}
			if fr.typ == msgTotals && !corrupted {
				fr.payload, corrupted = bad, true
			}
			if writeFrame(cc, fr.typ, fr.payload) != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// TestClusterKillWorkerRecoveryWidened is TestClusterKillWorkerRecovery
// at adaptive lookahead, checking that the slot's frame log held widened
// epochs: a recovery replays whatever grid the runner chose.
func TestClusterKillWorkerRecoveryWidened(t *testing.T) {
	const seed = 17
	faults := killFaults(300*time.Millisecond, 0)
	oracle := runOracle(t, seed, faults, time.Second)

	h := startCluster(t, seed, faults, 2, 1, nil)
	got, err := h.drive(t, seed, time.Second)
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	// The frame log only grows, so the frames logged before the kill are
	// the ones the standby replayed.
	widened := 0
	for _, m := range loggedFrames(t, h.c, 0) {
		if m.End-m.Start > sim.Time(core.Lookahead) && m.End <= sim.Time(300*time.Millisecond) {
			widened++
		}
	}
	h.shutdown(t)

	compareRuns(t, oracle, got, "cluster-with-kill vs sequential")
	if h.c.Recoveries() < 1 {
		t.Fatalf("expected at least one recovery, got %d", h.c.Recoveries())
	}
	if widened == 0 {
		t.Fatal("no logged epoch before the kill spans more than one lookahead cell; nothing widened was restored")
	}
}

// chaosFaults is a fault schedule touching every injector path:
// crashes with their recoveries, clone failure and latency windows, and
// a link cut.
func chaosFaults() *fault.Config {
	return &fault.Config{
		Script: []fault.Action{
			{At: 100 * time.Millisecond, Kind: fault.KindCloneFail, Prob: 0.5, Duration: 300 * time.Millisecond},
			{At: 200 * time.Millisecond, Kind: fault.KindCrash, Server: 1, Duration: 500 * time.Millisecond},
			{At: 350 * time.Millisecond, Kind: fault.KindCrash, Server: 0, Duration: 250 * time.Millisecond},
			{At: 400 * time.Millisecond, Kind: fault.KindLinkDown, Duration: 100 * time.Millisecond},
			{At: 600 * time.Millisecond, Kind: fault.KindCloneSlow, Factor: 4, Duration: 200 * time.Millisecond},
			{At: 800 * time.Millisecond, Kind: fault.KindCrash, Server: 1, Duration: 300 * time.Millisecond},
		},
	}
}

// TestFaultScheduleAcrossModes locks the fault layer to the seed: the
// same configuration produces an identical applied-fault schedule —
// and identical downstream bytes — in single-process sequential,
// single-process parallel, and cluster execution.
func TestFaultScheduleAcrossModes(t *testing.T) {
	const seed = 13
	faults := chaosFaults()
	seq := runOracle(t, seed, faults, time.Second)
	if len(seq.faults) == 0 {
		t.Fatal("fault schedule empty; the scenario is not exercising the injectors")
	}

	// Parallel in-process engine.
	cfg := testEngineConfig(seed, faults)
	var ev, tr bytes.Buffer
	cfg.EventLog, cfg.TraceOut = &ev, &tr
	eng, err := core.NewShardEngine(cfg)
	if err != nil {
		t.Fatalf("NewShardEngine: %v", err)
	}
	for _, pkt := range exploitPackets(cfg.Farm.Profile) {
		eng.InjectBarrier(pkt)
	}
	if _, err := eng.Replay(&telescope.SliceSource{Recs: testRecords(t, seed)}, nil, time.Millisecond); err != nil {
		t.Fatalf("parallel replay: %v", err)
	}
	eng.RunFor(time.Second)
	parFaults := eng.FaultLog()
	eng.Close()

	if !reflect.DeepEqual(seq.faults, parFaults) {
		t.Errorf("parallel fault schedule diverged:\nseq %q\npar %q", seq.faults, parFaults)
	}

	// Cluster.
	h := startCluster(t, seed, faults, 2, 0, nil)
	got, err := h.drive(t, seed, time.Second)
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	h.shutdown(t)
	compareRuns(t, seq, got, "cluster vs sequential (faulty)")
}

// killFaults schedules a fault-injected worker-process kill mid-run.
func killFaults(at time.Duration, worker int) *fault.Config {
	return &fault.Config{Script: []fault.Action{
		{At: at, Kind: fault.KindKillWorker, Server: worker},
	}}
}

// TestClusterKillWorkerRecovery injects a kill-worker fault: worker 0
// dies mid-epoch, the standby adopts its shards by replaying the slot's
// epoch frames, and the finished run still matches the sequential
// oracle byte for byte (where the kill is the recorded no-op it is
// everywhere outside a cluster). The early kill comes before any
// reflection; by the late one the dead worker's shards have sent each
// other packets that never crossed the wire, which the replay rebuilds.
func TestClusterKillWorkerRecovery(t *testing.T) {
	const seed = 17
	for _, tc := range []struct{ at, extra time.Duration }{
		{300 * time.Millisecond, time.Second},
		{1800 * time.Millisecond, 2 * time.Second},
	} {
		t.Run(fmt.Sprintf("kill=%v", tc.at), func(t *testing.T) {
			faults := killFaults(tc.at, 0)
			oracle := runOracle(t, seed, faults, tc.extra)

			h := startCluster(t, seed, faults, 2, 1, nil)
			got, err := h.drive(t, seed, tc.extra)
			if err != nil {
				t.Fatalf("cluster run: %v", err)
			}
			h.shutdown(t)

			compareRuns(t, oracle, got, "cluster-with-kill vs sequential")
			if h.c.Recoveries() < 1 {
				t.Fatalf("expected at least one recovery, got %d", h.c.Recoveries())
			}
			events := strings.Join(h.c.RecoveryEvents(), "\n")
			for _, want := range []string{"event=crash-detected", "event=restore-begin", "event=restore-done"} {
				if !strings.Contains(events, want) {
					t.Errorf("recovery log missing %q:\n%s", want, events)
				}
			}
			killed := 0
			for _, werr := range h.errs {
				if errors.Is(werr, ErrKilled) {
					killed++
				}
			}
			if killed != 1 {
				t.Errorf("expected exactly one worker killed, got %d (errs %v)", killed, h.errs)
			}
		})
	}
}

// TestClusterDegradesWithoutStandby proves the failure mode the barrier
// must never have: with no replacement available, a crashed worker ends
// the run with a clean error and partial results instead of a hang.
func TestClusterDegradesWithoutStandby(t *testing.T) {
	const seed = 19
	faults := killFaults(100*time.Millisecond, 0)
	h := startCluster(t, seed, faults, 2, 0, func(cfg *Config) {
		cfg.RecoveryWait = 300 * time.Millisecond
	})
	_, err := h.drive(t, seed, time.Second)
	if err == nil {
		t.Fatal("degraded run reported no error")
	}
	if !strings.Contains(err.Error(), "no replacement") {
		t.Errorf("unexpected degrade error: %v", err)
	}
	if h.c.err == nil {
		t.Error("coordinator has no terminal error")
	}
	// Partial results from the surviving worker are still reachable.
	res, rerr := h.c.Results()
	if rerr == nil {
		t.Error("partial results did not carry the terminal error")
	}
	if res == nil || len(res.Events) == 0 {
		t.Error("no partial results from the surviving worker")
	}
	events := strings.Join(h.c.RecoveryEvents(), "\n")
	if !strings.Contains(events, "event=degraded") {
		t.Errorf("recovery log missing degraded event:\n%s", events)
	}
	// Nothing was recovered, and the health view says so: the crashed
	// slot is not live, beside the degraded flag.
	if n := h.c.Recoveries(); n != 0 || res.Recoveries != 0 {
		t.Errorf("Recoveries() = %d, Results.Recoveries = %d; no replacement ever connected", n, res.Recoveries)
	}
	health := h.c.Health()
	if !health.Degraded || health.Recoveries != 0 || len(health.Workers) != 2 || health.Workers[0].Live {
		t.Errorf("health after an unrecovered crash of slot 0: %+v", health)
	}
	h.shutdown(t)
}

// TestClusterWorkerSIGKILLRecovery is the acceptance demo with real
// processes: 4 shards across 2 worker processes (re-exec'd test
// binary), SIGKILL one mid-run, and the recovered run's merged output
// still matches the single-process sequential oracle byte for byte.
func TestClusterWorkerSIGKILLRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	const seed = 11
	oracle := runOracle(t, seed, nil, time.Second)

	var killOnce sync.Once
	var victim *exec.Cmd
	procs := map[string]*exec.Cmd{}

	cfg := Config{
		Engine:            testEngineConfig(seed, nil),
		ConfigTag:         testTag,
		ListenAddr:        "127.0.0.1:0",
		Workers:           2,
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  5 * time.Second,
		RecoveryWait:      20 * time.Second,
		Logf:              t.Logf,
	}
	// SIGKILL worker 0's process mid-run, from the epoch dispatch hook
	// so the kill always lands while epochs are in flight: at the first
	// epoch opening 150 ms into the run, wherever the grid puts it.
	cfg.OnEpoch = func(seq uint64, start, end sim.Time) {
		if start >= sim.Time(150*time.Millisecond) {
			killOnce.Do(func() {
				if victim != nil && victim.Process != nil {
					t.Logf("SIGKILL worker process pid %d at epoch %d", victim.Process.Pid, seq)
					victim.Process.Kill()
				}
			})
		}
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := c.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer c.Close()
	spawn := func(name string) *exec.Cmd {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(),
			"POTEMKIN_CLUSTER_WORKER_ADDR="+c.Addr().String(),
			"POTEMKIN_CLUSTER_WORKER_NAME="+name,
			fmt.Sprintf("POTEMKIN_CLUSTER_WORKER_SEED=%d", seed),
		)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting worker %s: %v", name, err)
		}
		// However the test ends, even at a later spawn's Fatalf, the
		// process is gone before it does.
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
		procs[name] = cmd
		return cmd
	}
	for _, name := range []string{"w0", "w1", "w2"} {
		spawn(name)
	}
	if err := c.WaitReady(60 * time.Second); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	victim = procs[c.assigned[0].name]

	for _, pkt := range exploitPackets(testEngineConfig(seed, nil).Farm.Profile) {
		c.Inject(pkt)
	}
	var ticks []tick
	c.SetProgress(progressEvery, observe(&ticks))
	injected, err := c.Replay(&telescope.SliceSource{Recs: testRecords(t, seed)}, nil, time.Millisecond)
	if err != nil {
		t.Fatalf("cluster replay: %v", err)
	}
	c.RunFor(time.Second)
	res, err := c.Results()
	if err != nil {
		t.Fatalf("Results: %v", err)
	}
	if c.Recoveries() < 1 {
		t.Fatalf("expected a recovery after SIGKILL, got none (events: %v)", c.RecoveryEvents())
	}
	got := runOut{
		totals: res.Totals, injected: injected, now: res.Now, faults: res.FaultLog,
		events: res.Events, trace: res.Trace, ticks: ticks,
	}
	compareRuns(t, oracle, got, "SIGKILL-recovered cluster vs sequential")
	events := strings.Join(c.RecoveryEvents(), "\n")
	for _, want := range []string{"event=crash-detected", "event=restore-done"} {
		if !strings.Contains(events, want) {
			t.Errorf("recovery log missing %q:\n%s", want, events)
		}
	}
}
