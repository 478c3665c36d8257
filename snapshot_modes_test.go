package potemkin

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"potemkin/internal/cluster"
	"potemkin/internal/netsim"
	"potemkin/internal/scenario"
	"potemkin/internal/telescope"
)

// TestSnapshotOfMatchesAcrossModes: SnapshotOf's JSON at the end of a
// run is the same bytes sequentially, under Parallel, and through an
// in-process cluster coordinator — clean, and with a worker lost
// mid-run and recovered onto a standby — at two and at four shards,
// with tracing on (stages_ms and open_spans filled) and off.
func TestSnapshotOfMatchesAcrossModes(t *testing.T) {
	recs := wireTestTrace(t)
	for _, traced := range []bool{false, true} {
		for _, shards := range []int{2, 4} {
			t.Run(fmt.Sprintf("trace=%v/shards=%d", traced, shards), func(t *testing.T) {
				opts := Options{Seed: wireSeed, GatewayShards: shards, Policy: InternalReflect, IdleTimeout: time.Second}
				if traced {
					opts.TraceOut = io.Discard
				}
				want := localSnapshot(t, opts, recs)
				var s Snapshot
				if err := json.Unmarshal(want, &s); err != nil {
					t.Fatal(err)
				}
				if s.InfectedVMs == 0 || s.CloneMs.Count == 0 {
					t.Errorf("vacuous run: %s", want)
				}
				if traced != (s.StagesMs != nil) || traced != (s.OpenSpans > 0) {
					t.Errorf("tracing %v, yet stages %v and %d open spans", traced, s.StagesMs, s.OpenSpans)
				}
				par := opts
				par.Parallel = true
				modes := []struct {
					name string
					snap []byte
				}{
					{"parallel", localSnapshot(t, par, recs)},
					{"cluster", clusterSnapshot(t, opts, recs, false)},
					{"recovered cluster", clusterSnapshot(t, opts, recs, true)},
				}
				for _, m := range modes {
					if !bytes.Equal(want, m.snap) {
						t.Errorf("%s snapshot differs from sequential:\n--- sequential\n%s\n--- %s\n%s", m.name, want, m.name, m.snap)
					}
				}
			})
		}
	}
}

// TestCaptureMatchesAcrossModes: every shard domain writes its own
// capture and checkpoint files, so a multistage campaign, whose scan
// detector fires, leaves the same bytes in every shard-<i>/ pcap and
// every checkpoint sequentially, under Parallel and through an
// in-process cluster coordinator — clean, and with slot 0 lost mid-run
// and recovered onto a standby, which recreates its shards' files — at
// two and at four shards.
func TestCaptureMatchesAcrossModes(t *testing.T) {
	sc, err := LoadScenario("multistage")
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			// A /26 keeps the files small: the detector flags nearly every
			// infected VM, and each checkpoint is some 400 KiB.
			opts := Options{Seed: 9, MonitoredSpace: "10.5.0.0/26", Servers: 4, GatewayShards: shards,
				Policy: InternalReflect, Scenario: sc}
			local := func(o Options) {
				hf := MustNew(o)
				defer hf.Close()
				if _, err := hf.RunScenario(); err != nil {
					t.Fatal(err)
				}
			}
			plan, err := scenario.Compile(sc, opts.Seed, netsim.MustParsePrefix(opts.MonitoredSpace))
			if err != nil {
				t.Fatal(err)
			}
			clustered := func(cutAfter int64) func(Options) {
				return func(o Options) {
					clusterRun(t, o, &telescope.SliceSource{Recs: plan.Records}, plan.Settle, cutAfter)
				}
			}
			want := runFiles(t, opts, local)
			ckpts := 0
			for name := range want {
				if filepath.Ext(name) == ".ckpt" {
					ckpts++
				}
			}
			if ckpts == 0 {
				t.Errorf("the scan detector saved no checkpoint: %v", slices.Sorted(maps.Keys(want)))
			}
			for i := 0; i < shards; i++ {
				for _, name := range []string{"in", "tovm", "out"} {
					if _, ok := want[fmt.Sprintf("capture/shard-%d/%s.pcap", i, name)]; !ok {
						t.Errorf("no capture/shard-%d/%s.pcap", i, name)
					}
				}
			}
			par := opts
			par.Parallel = true
			for _, m := range []struct {
				name string
				opts Options
				run  func(Options)
			}{
				{"parallel", par, local},
				{"cluster", opts, clustered(0)},
				// Cut late enough that the lost worker has written
				// checkpoints and flushed capture bytes, which the
				// standby's rebuild truncates and rewrites.
				{"recovered cluster", opts, clustered(32 << 10)},
			} {
				got := runFiles(t, m.opts, m.run)
				for _, name := range slices.Sorted(maps.Keys(want)) {
					if !bytes.Equal(want[name], got[name]) {
						t.Errorf("%s: %s differs from sequential (%d bytes, want %d)", m.name, name, len(got[name]), len(want[name]))
					}
				}
				for name := range got {
					if _, ok := want[name]; !ok {
						t.Errorf("%s: %s has no sequential counterpart", m.name, name)
					}
				}
			}
		})
	}
}

// runFiles runs opts, its capture and checkpoint directories pointed
// under a fresh temporary directory, through run, and returns every
// file left there by its path below that directory.
func runFiles(t *testing.T, opts Options, run func(Options)) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	opts.CaptureDir = filepath.Join(dir, "capture")
	opts.CheckpointDir = filepath.Join(dir, "checkpoints")
	run(opts)
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		files[filepath.ToSlash(rel)] = b
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// localSnapshot replays recs through a honeyfarm built from opts and
// returns SnapshotOf its totals, before Close.
func localSnapshot(t *testing.T, opts Options, recs []TraceRecord) []byte {
	t.Helper()
	hf := MustNew(opts)
	defer hf.Close()
	if _, err := hf.Replay(SliceSource(recs)); err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(SnapshotOf(hf.Totals()), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// clusterSnapshot replays recs through a coordinator over two
// in-process worker slots (see clusterRun) and returns SnapshotOf the
// run's results. With cut, slot 0 is cut once 2 KiB have gone to it.
func clusterSnapshot(t *testing.T, opts Options, recs []TraceRecord, cut bool) []byte {
	t.Helper()
	var cutAfter int64
	if cut {
		cutAfter = 2 << 10
	}
	res := clusterRun(t, opts, &telescope.SliceSource{Recs: recs}, time.Millisecond, cutAfter)
	b, err := json.MarshalIndent(SnapshotOf(time.Duration(res.Now), res.Totals), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// clusterRun replays src, then epilogue, through a coordinator over two
// in-process worker slots built from opts and returns the run's
// results. With cutAfter above 0, a third worker stands by, slot 0's
// connection is cut once cutAfter bytes have gone to it, and the
// standby takes its shards over. Every worker's RunWorker has returned
// when it does.
func clusterRun(t *testing.T, opts Options, src telescope.Source, epilogue time.Duration, cutAfter int64) *cluster.Results {
	t.Helper()
	ec, err := opts.EngineConfig()
	if err != nil {
		t.Fatal(err)
	}
	ec.TraceOut = opts.TraceOut // a marker: the workers collect spans when it is set
	const tag = "snapshot-modes"
	c, err := cluster.New(cluster.Config{
		Engine: ec, ConfigTag: tag, ListenAddr: "127.0.0.1:0", Workers: 2,
		HeartbeatInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	defer c.Close()
	run := func(addr, name string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cluster.RunWorker(cluster.WorkerConfig{
				Addr: addr, Engine: ec, ConfigTag: tag, Name: name,
				HeartbeatInterval: 20 * time.Millisecond,
			})
		}()
	}
	addr := c.Addr().String()
	cut := cutAfter > 0
	if cut {
		// The relayed worker connects first, so slot 0 is its, and the
		// last of the other two to connect stays a standby.
		relay, standby := cutRelay(t, addr, cutAfter)
		run(relay, "cut")
		select {
		case <-standby:
		case <-time.After(30 * time.Second):
			t.Fatal("the relayed worker never reached the standby pool")
		}
	}
	run(addr, "w0")
	run(addr, "w1")
	if err := c.WaitReady(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Replay(src, nil, epilogue); err != nil {
		t.Fatal(err)
	}
	res, err := c.Results()
	if err != nil {
		t.Fatal(err)
	}
	if recovered := c.Recoveries() > 0; recovered != cut {
		t.Errorf("%d recoveries with cut %v: %q", c.Recoveries(), cut, c.RecoveryEvents())
	}
	return res
}

// cutRelay relays one worker connection to the coordinator at addr and
// cuts it both ways once n bytes have gone to the worker. standby is
// closed when the first do, a heartbeat: the coordinator has taken the
// worker into its standby pool.
func cutRelay(t *testing.T, addr string, n int64) (relay string, standby <-chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	ready := make(chan struct{})
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
		var first [1]byte
		if _, err := io.ReadFull(cc, first[:]); err != nil {
			return
		}
		close(ready)
		if _, err := wc.Write(first[:]); err == nil {
			io.CopyN(wc, cc, n)
		}
	}()
	return ln.Addr().String(), ready
}
