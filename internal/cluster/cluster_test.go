package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
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
}

// runOracle executes the scenario on a single-process sequential
// ShardEngine — the byte-equality baseline.
func runOracle(t *testing.T, seed uint64, faults *fault.Config, extra time.Duration) runOut {
	t.Helper()
	return runOracleConfig(t, testEngineConfig(seed, faults), extra)
}

// runOracleConfig is runOracle over a given scenario configuration.
func runOracleConfig(t *testing.T, cfg core.ShardEngineConfig, extra time.Duration) runOut {
	t.Helper()
	seed := cfg.Seed
	cfg.Parallel = false
	var ev, tr bytes.Buffer
	cfg.EventLog, cfg.TraceOut = &ev, &tr
	eng, err := core.NewShardEngine(cfg)
	if err != nil {
		t.Fatalf("NewShardEngine: %v", err)
	}
	eng.StartFaults()
	for _, pkt := range exploitPackets(cfg.Farm.Profile) {
		eng.InjectBarrier(pkt)
	}
	injected, err := eng.Replay(&telescope.SliceSource{Recs: testRecords(t, seed)}, nil, time.Millisecond)
	if err != nil {
		t.Fatalf("oracle replay: %v", err)
	}
	eng.RunFor(extra)
	out := runOut{
		totals: eng.Totals(), injected: injected, now: eng.Now(), faults: eng.FaultLog(),
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("oracle close: %v", err)
	}
	out.events, out.trace = ev.Bytes(), tr.Bytes()
	return out
}

// clusterHarness runs a coordinator plus in-process workers over TCP
// loopback.
type clusterHarness struct {
	c       *Coordinator
	wg      sync.WaitGroup
	errs    []error
	workers int
}

func startCluster(t *testing.T, seed uint64, faults *fault.Config, workers, standbys int, tweak func(cfg *Config)) *clusterHarness {
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
	h := &clusterHarness{c: c, errs: make([]error, workers+standbys), workers: workers}
	for i := 0; i < workers+standbys; i++ {
		i := i
		wc := WorkerConfig{
			Addr:              c.Addr().String(),
			Engine:            testEngineConfig(seed, faults),
			ConfigTag:         testTag,
			Name:              fmt.Sprintf("w%d", i),
			HeartbeatInterval: 50 * time.Millisecond,
			Logf:              t.Logf,
		}
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			h.errs[i] = RunWorker(wc)
		}()
	}
	if err := c.WaitReady(30 * time.Second); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	return h
}

// drive runs the standard scenario through the cluster and merges the
// results into the comparable form.
func (h *clusterHarness) drive(t *testing.T, seed uint64, extra time.Duration) (runOut, error) {
	t.Helper()
	for _, pkt := range exploitPackets(testEngineConfig(seed, nil).Farm.Profile) {
		h.c.Inject(pkt)
	}
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
		events: res.Events, trace: res.Trace,
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
	if want.totals != got.totals {
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
			cfg.AdaptiveEpochs = adaptive
			var timeline bytes.Buffer
			cfg.EpochLog = &timeline
			oracle := runOracleConfig(t, cfg, 2*time.Second)
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
				c.Engine.AdaptiveEpochs = adaptive
				c.OnEpoch = func(_ uint64, start, end sim.Time) { got = append(got, [2]sim.Time{start, end}) }
			})
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

// TestClusterKillWorkerRecoveryWidened is TestClusterKillWorkerRecovery
// at adaptive lookahead, checking that the slot's frame log held widened
// epochs: a recovery replays whatever grid the runner chose.
func TestClusterKillWorkerRecoveryWidened(t *testing.T) {
	const seed = 17
	faults := killFaults(300*time.Millisecond, 0)
	oracle := runOracle(t, seed, faults, time.Second)

	h := startCluster(t, seed, faults, 2, 1, func(c *Config) { c.Engine.AdaptiveEpochs = 64 })
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
// scripted crash/recovery, clone failure and latency windows, a link
// cut, and Poisson background crashes.
func chaosFaults() *fault.Config {
	return &fault.Config{
		Script: []fault.Action{
			{At: 100 * time.Millisecond, Kind: fault.KindCloneFail, Prob: 0.5, Duration: 300 * time.Millisecond},
			{At: 200 * time.Millisecond, Kind: fault.KindCrash, Server: 1, Duration: 500 * time.Millisecond},
			{At: 400 * time.Millisecond, Kind: fault.KindLinkDown, Duration: 100 * time.Millisecond},
			{At: 600 * time.Millisecond, Kind: fault.KindCloneSlow, Factor: 4, Duration: 200 * time.Millisecond},
		},
		CrashRate:  0.2,
		MeanOutage: time.Second,
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
	eng.StartFaults()
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
		procs[name] = cmd
		return cmd
	}
	for _, name := range []string{"w0", "w1", "w2"} {
		spawn(name)
	}
	defer func() {
		c.Close()
		for _, cmd := range procs {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()
	if err := c.WaitReady(60 * time.Second); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	victim = procs[c.assigned[0].name]

	for _, pkt := range exploitPackets(testEngineConfig(seed, nil).Farm.Profile) {
		c.Inject(pkt)
	}
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
		events: res.Events, trace: res.Trace,
	}
	compareRuns(t, oracle, got, "SIGKILL-recovered cluster vs sequential")
	events := strings.Join(c.RecoveryEvents(), "\n")
	for _, want := range []string{"event=crash-detected", "event=restore-done"} {
		if !strings.Contains(events, want) {
			t.Errorf("recovery log missing %q:\n%s", want, events)
		}
	}
}
