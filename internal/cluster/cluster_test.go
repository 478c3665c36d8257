package cluster

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"potemkin/internal/core"
	"potemkin/internal/fault"
	"potemkin/internal/ingest"
	"potemkin/internal/sim"
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

// TestClusterMatchesSequential is the tentpole equivalence proof: the
// same scenario on one worker process or split across two (in-process
// here, but over real TCP and the real protocol) produces
// byte-identical stats, event log, and trace to the single-process
// sequential oracle. One worker hosts every shard, so no cross-shard
// packet crosses the wire: the worker exchanges them all itself.
func TestClusterMatchesSequential(t *testing.T) {
	sp := standard(t, 7)
	sp.runFor = 2 * time.Second
	oracle := runModes(t, sp, "seq")[0]
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			sp.slots = workers
			got := runModes(t, sp, "cluster")[0]
			for i, werr := range got.h.errs {
				if werr != nil {
					t.Errorf("worker %d: %v", i, werr)
				}
			}
			requireSame(t, oracle, got)
			if got.h.c.Recoveries() != 0 {
				t.Errorf("unexpected recoveries: %d", got.h.c.Recoveries())
			}
			if workers == 1 {
				for _, m := range loggedFrames(t, got.h.c, 0) {
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

// TestClusterEpochGridMatchesEngine: the cluster's epochs are the
// engine's — one runner loop over two transports — at the default
// adaptive lookahead and on the fixed grid, and the outputs stay
// byte-equal to the sequential oracle at both settings. The epoch logs
// compare without their wall times.
func TestClusterEpochGridMatchesEngine(t *testing.T) {
	for _, adaptive := range []int{64, 1} {
		t.Run(fmt.Sprintf("adaptive=%d", adaptive), func(t *testing.T) {
			sp := standard(t, 7)
			sp.runFor = 2 * time.Second
			sp.adaptive = adaptive
			sp.opts.EpochLog = io.Discard
			var dispatched int
			sp.coord = func(c *Config) { c.OnEpoch = func(uint64, sim.Time, sim.Time) { dispatched++ } }
			runs := runModes(t, sp, "seq", "cluster")
			if len(runs[0].samples) == 0 {
				t.Fatal("the engine ran no epochs")
			}
			requireSame(t, runs[0], runs[1])
			if dispatched != len(runs[1].samples) {
				t.Errorf("the coordinator dispatched %d epochs and logged %d", dispatched, len(runs[1].samples))
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
			sp := standard(t, 17)
			sp.runFor = time.Second
			sp.faults = tc.faults
			oracle := runModes(t, sp, "seq")[0]
			if len(oracle.ticks) < 10 {
				t.Fatalf("the engine ticked %d times in %s at every %v", len(oracle.ticks), oracle.art["stats"], sp.progress)
			}
			if sp.standbys = 1; tc.lostTotals {
				sp.relay, sp.standbys = cutAtTotals, 0 // the relay brings its own standby
			}
			got := runModes(t, sp, "cluster")[0]
			requireSame(t, oracle, got)
			h := got.h
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
	return relay(t, addr, func(wc, cc net.Conn) {
		for {
			fr, err := readFrame(cc)
			if err != nil || fr.typ == msgTotals || writeFrame(wc, fr.typ, fr.payload) != nil {
				return
			}
		}
	}, func(wc, cc net.Conn) { io.Copy(plain{cc}, wc) })
}

// TestLostWorkerClosesItsFiles: a worker that loses its coordinator
// connection mid-run closes its domains as RunWorker returns, as a
// results exchange does, so once it has returned each of its shards'
// capture files is flushed whole: it parses to its last record. The
// cut worker writes under a directory of its own, which the standby
// that takes its slot over does not rewrite; the worker that runs to
// the end writes under another, which must parse whole as well.
func TestLostWorkerClosesItsFiles(t *testing.T) {
	sp := standard(t, 17)
	sp.runFor = time.Second
	h := startCluster(t, sp, "cluster")
	addr := h.c.Addr().String()
	cutDir, keptDir := t.TempDir(), t.TempDir()
	capture := func(dir string) func(*WorkerConfig) {
		return func(wc *WorkerConfig) { wc.Engine.CaptureDir = dir }
	}
	h.addWorker(cutAtTotals(t, addr), capture(cutDir))
	h.awaitStandby()
	h.addWorker(addr, capture(keptDir))
	h.connect(t, 1) // the standby
	if _, err := h.drive(t); err != nil {
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
	sp := standard(t, 17)
	sp.runFor = time.Second
	sp.relay = corruptTotals
	runs := runModes(t, sp, "seq", "cluster")
	requireSame(t, runs[0], runs[1])
	c := runs[1].h.c
	if events := strings.Join(c.RecoveryEvents(), "\n"); c.Recoveries() != 1 || !strings.Contains(events, "bad totals") {
		t.Errorf("%d recoveries, none for a bad totals reply:\n%s", c.Recoveries(), events)
	}
}

// corruptTotals relays one worker connection to the coordinator at addr
// and replaces the first totals reply the worker sends with one whose
// clone histogram starts below octave 0. It returns the address for the
// worker to dial.
func corruptTotals(t *testing.T, addr string) string {
	bad := []byte(`{"Shards":[{"Shard":0,"Totals":{"Clone":[{"lo":-1,"n":1,"sum":1,"min":1,"max":1,"b":[1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}]}}]}`)
	return relay(t, addr, func(wc, cc net.Conn) { io.Copy(plain{wc}, cc) }, func(wc, cc net.Conn) {
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
	})
}

// TestClusterKillWorkerRecoveryWidened is TestClusterKillWorkerRecovery
// at adaptive lookahead, checking that the slot's frame log held widened
// epochs: a recovery replays whatever grid the runner chose.
func TestClusterKillWorkerRecoveryWidened(t *testing.T) {
	sp := standard(t, 17)
	sp.runFor = time.Second
	sp.faults = killFaults(300*time.Millisecond, 0)
	sp.standbys = 1
	runs := runModes(t, sp, "seq", "cluster")
	requireSame(t, runs[0], runs[1])
	c := runs[1].h.c
	if c.Recoveries() < 1 {
		t.Fatalf("expected at least one recovery, got %d", c.Recoveries())
	}
	// The frame log only grows, so the frames logged before the kill are
	// the ones the standby replayed.
	widened := 0
	for _, m := range loggedFrames(t, c, 0) {
		if m.End-m.Start > sim.Time(core.Lookahead) && m.End <= sim.Time(300*time.Millisecond) {
			widened++
		}
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
	sp := standard(t, 13)
	sp.runFor = time.Second
	sp.faults = chaosFaults()
	runs := runModes(t, sp, "seq", "par", "cluster")
	if len(runs[0].art["faults"]) == 0 {
		t.Fatal("fault schedule empty; the scenario is not exercising the injectors")
	}
	requireSame(t, runs[0], runs[1])
	requireSame(t, runs[0], runs[2])
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
	for _, tc := range []struct{ at, extra time.Duration }{
		{300 * time.Millisecond, time.Second},
		{1800 * time.Millisecond, 2 * time.Second},
	} {
		t.Run(fmt.Sprintf("kill=%v", tc.at), func(t *testing.T) {
			sp := standard(t, 17)
			sp.runFor = tc.extra
			sp.faults = killFaults(tc.at, 0)
			sp.standbys = 1
			runs := runModes(t, sp, "seq", "cluster")
			requireSame(t, runs[0], runs[1])
			h := runs[1].h
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
	sp := standard(t, 19)
	sp.runFor = time.Second
	sp.faults = killFaults(100*time.Millisecond, 0)
	sp.coord = func(cfg *Config) { cfg.RecoveryWait = 300 * time.Millisecond }
	h := startCluster(t, sp, "cluster")
	h.connect(t, 2)
	_, err := h.drive(t)
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
	sp := standard(t, 11)
	sp.runFor = time.Second
	oracle := runModes(t, sp, "seq")[0]

	var killOnce sync.Once
	var victim *exec.Cmd
	procs := map[string]*exec.Cmd{}
	sp.coord = func(cfg *Config) {
		cfg.RecoveryWait = 20 * time.Second
		// SIGKILL worker 0's process mid-run, from the epoch dispatch
		// hook so the kill always lands while epochs are in flight: at
		// the first epoch opening 150 ms into the run, wherever the grid
		// puts it.
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
	}
	h := startCluster(t, sp, "cluster")
	defer h.c.Close()
	c := h.c
	spawn := func(name string) *exec.Cmd {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(),
			"POTEMKIN_CLUSTER_WORKER_ADDR="+c.Addr().String(),
			"POTEMKIN_CLUSTER_WORKER_NAME="+name,
			fmt.Sprintf("POTEMKIN_CLUSTER_WORKER_SEED=%d", sp.opts.Seed),
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
	got, err := h.drive(t)
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	if c.Recoveries() < 1 {
		t.Fatalf("expected a recovery after SIGKILL, got none (events: %v)", c.RecoveryEvents())
	}
	h.shutdown(t)
	requireSame(t, oracle, got)
	events := strings.Join(c.RecoveryEvents(), "\n")
	for _, want := range []string{"event=crash-detected", "event=restore-done"} {
		if !strings.Contains(events, want) {
			t.Errorf("recovery log missing %q:\n%s", want, events)
		}
	}
}
