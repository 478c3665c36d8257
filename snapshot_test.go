package potemkin

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"potemkin/internal/guest"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/telescope"
	"potemkin/internal/trace"
)

func TestSnapshotReflectsActivity(t *testing.T) {
	hf := MustNew(Options{Seed: 3})
	defer hf.Close()
	for i := 0; i < 5; i++ {
		if err := hf.InjectProbe("203.0.113.9", "10.5.1.2", 445); err != nil {
			t.Fatal(err)
		}
	}
	hf.RunFor(2 * time.Second)

	s := hf.Snapshot()
	if s.TSeconds != 2 {
		t.Errorf("TSeconds = %v", s.TSeconds)
	}
	if s.BindingsCreated != 1 || s.BindingsLive != 1 || s.LiveVMs != 1 {
		t.Errorf("bindings/vms: %+v", s)
	}
	if s.CloneMs.Count != 1 || s.CloneMs.P50 <= 0 {
		t.Errorf("clone summary: %+v", s.CloneMs)
	}
	if s.StagesMs != nil {
		t.Error("stages present with tracing off")
	}

	// The snapshot must be a self-contained JSON object.
	b, err := hf.MarshalSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.BindingsCreated != s.BindingsCreated || back.CloneMs != s.CloneMs {
		t.Errorf("snapshot round-trip mangled: %+v vs %+v", back, s)
	}
}

func TestFacadeTraceExport(t *testing.T) {
	var jsonl bytes.Buffer
	hf := MustNew(Options{Seed: 3, TraceOut: &jsonl})
	if err := hf.InjectProbe("203.0.113.9", "10.5.1.2", 445); err != nil {
		t.Fatal(err)
	}
	hf.RunFor(2 * time.Second)

	s := hf.Snapshot()
	if s.StagesMs == nil {
		t.Fatal("no stage summaries with tracing on")
	}
	if cl, ok := s.StagesMs["clone"]; !ok || cl.Count != 1 {
		t.Fatalf("clone stage missing: %+v", s.StagesMs)
	}
	hf.Close()

	recs, err := trace.ReadAll(&jsonl)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, r := range recs {
		names[r.Name]++
	}
	for _, want := range []string{"binding", "spawn", "place", "clone", "active"} {
		if names[want] == 0 {
			t.Errorf("no %q span in facade trace (got %v)", want, names)
		}
	}

	// Rendered for Chrome, it must be a closed, valid JSON array.
	var chrome bytes.Buffer
	cw := trace.NewChromeWriter(&chrome)
	for _, r := range recs {
		cw.Write(r)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(chrome.Bytes(), &events); err != nil {
		t.Fatalf("chrome trace invalid: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("chrome trace empty")
	}
}

// Same seed, same workload → byte-identical facade trace.
func TestFacadeTraceDeterministic(t *testing.T) {
	run := func() string {
		var buf bytes.Buffer
		hf := MustNew(Options{Seed: 11, TraceOut: &buf})
		recs, err := hf.GenerateTrace(3*time.Second, 50)
		if err != nil {
			t.Fatal(err)
		}
		hf.Replay(SliceSource(recs))
		hf.RunFor(time.Second)
		hf.Close()
		return buf.String()
	}
	a, b := run(), run()
	if a == "" {
		t.Fatal("empty trace")
	}
	if a != b {
		al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
		for i := range al {
			if i >= len(bl) || al[i] != bl[i] {
				t.Fatalf("traces diverge at line %d:\n%s\n---\n%s", i+1, al[i], bl[i])
			}
		}
		t.Fatal("traces differ in length")
	}
}

// TestSnapshotOfMatchesAcrossModes: SnapshotOf's JSON at the end of a
// replay is the same bytes from the facade sequentially and under
// Parallel, at two and at four shards, with tracing on (stages_ms and
// open_spans filled) and off. The trace is four seconds of radiation
// with one exploit at 3.5 s, so the snapshot covers infection state.
// internal/cluster's test of the same name holds the engine and cluster
// modes, recovered clusters included, to the same bytes.
func TestSnapshotOfMatchesAcrossModes(t *testing.T) {
	gcfg := telescope.DefaultGenConfig()
	gcfg.Seed, gcfg.Duration, gcfg.Rate = 77, 4*time.Second, 250
	recs, err := telescope.Generate(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	prof := guest.WindowsXP()
	payload := prof.ExploitPayload(0)
	ex := TraceRecord{At: sim.Time(3500 * time.Millisecond), Src: netsim.MustParseAddr("198.51.100.77"), Dst: netsim.MustParseAddr("10.5.7.20"),
		Proto: netsim.ProtoTCP, SrcPort: 40000, DstPort: prof.ScanDstPort, Flags: netsim.FlagSYN | netsim.FlagPSH, PayLen: uint16(len(payload)), Payload: payload}
	recs = slices.Insert(recs, sort.Search(len(recs), func(i int) bool { return recs[i].At > ex.At }), ex)
	for _, traced := range []bool{false, true} {
		for _, shards := range []int{2, 4} {
			t.Run(fmt.Sprintf("trace=%v/shards=%d", traced, shards), func(t *testing.T) {
				var snaps [2][]byte
				for i, parallel := range []bool{false, true} {
					opts := Options{Seed: 77, GatewayShards: shards, Policy: InternalReflect, IdleTimeout: time.Second, Parallel: parallel}
					if traced {
						opts.TraceOut = io.Discard
					}
					hf := MustNew(opts)
					if _, err := hf.Replay(SliceSource(recs)); err != nil {
						t.Fatal(err)
					}
					if snaps[i], err = json.MarshalIndent(SnapshotOf(hf.Totals()), "", "  "); err != nil {
						t.Fatal(err)
					}
					hf.Close()
				}
				var s Snapshot
				if err := json.Unmarshal(snaps[0], &s); err != nil {
					t.Fatal(err)
				}
				if s.InfectedVMs == 0 || s.CloneMs.Count == 0 {
					t.Errorf("vacuous run: %s", snaps[0])
				}
				if traced != (s.StagesMs != nil) || traced != (s.OpenSpans > 0) {
					t.Errorf("tracing %v, yet stages %v and %d open spans", traced, s.StagesMs, s.OpenSpans)
				}
				if !bytes.Equal(snaps[0], snaps[1]) {
					t.Errorf("parallel snapshot differs from sequential:\n--- sequential\n%s\n--- parallel\n%s", snaps[0], snaps[1])
				}
			})
		}
	}
}
