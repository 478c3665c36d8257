package potemkin

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

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
