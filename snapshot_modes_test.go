package potemkin

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// TestSnapshotOfMatchesAcrossModes: SnapshotOf's JSON at the end of a
// facade Replay is the same bytes sequentially and under Parallel, at
// two and at four shards, with tracing on (stages_ms and open_spans
// filled) and off. internal/cluster's test of the same name holds the
// engine to it in every mode: through a cluster coordinator too, clean
// and with a worker lost mid-run and recovered onto a standby.
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
				opts.Parallel = true
				if par := localSnapshot(t, opts, recs); !bytes.Equal(want, par) {
					t.Errorf("parallel snapshot differs from sequential:\n--- sequential\n%s\n--- parallel\n%s", want, par)
				}
			})
		}
	}
}

// TestCaptureMatchesAcrossModes: every shard domain writes its own
// capture and checkpoint files, so a multistage campaign, whose scan
// detector fires, leaves the same bytes in every shard-<i>/ pcap and
// every checkpoint from the facade's RunScenario sequentially and under
// Parallel, at two and at four shards. internal/cluster's test of the
// same name holds the engine to it in every mode: through a cluster
// coordinator too, clean and with slot 0 lost mid-run and recovered
// onto a standby, which recreates its shards' files.
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
			want := runFiles(t, opts)
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
			opts.Parallel = true
			got := runFiles(t, opts)
			for _, name := range slices.Sorted(maps.Keys(want)) {
				if !bytes.Equal(want[name], got[name]) {
					t.Errorf("parallel: %s differs from sequential (%d bytes, want %d)", name, len(got[name]), len(want[name]))
				}
			}
			for name := range got {
				if _, ok := want[name]; !ok {
					t.Errorf("parallel: %s has no sequential counterpart", name)
				}
			}
		})
	}
}

// runFiles runs opts' scenario, its capture and checkpoint directories
// pointed under a fresh temporary directory, and returns every file
// left there by its path below that directory.
func runFiles(t *testing.T, opts Options) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	opts.CaptureDir = filepath.Join(dir, "capture")
	opts.CheckpointDir = filepath.Join(dir, "checkpoints")
	hf := MustNew(opts)
	if _, err := hf.RunScenario(); err != nil {
		t.Fatal(err)
	}
	hf.Close()
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
