package analysis

import (
	"bytes"
	"strings"
	"testing"

	"potemkin/internal/gateway"
)

// jsonl builds a log from events.
func jsonl(events ...gateway.Event) *bytes.Buffer {
	var buf bytes.Buffer
	sink := gateway.JSONLSink(&buf, nil)
	for _, ev := range events {
		sink(ev)
	}
	return &buf
}

func TestAnalyzeTimeline(t *testing.T) {
	rep, err := Analyze(jsonl(
		gateway.Event{T: 1.0, Kind: gateway.EvBound, Addr: "10.5.0.1", Peer: "6.6.6.6"},
		gateway.Event{T: 1.5, Kind: gateway.EvActive, Addr: "10.5.0.1"},
		gateway.Event{T: 3.0, Kind: gateway.EvDetected, Addr: "10.5.0.1", Peer: "9.9.9.9"},
		gateway.Event{T: 9.0, Kind: gateway.EvRecycled, Addr: "10.5.0.1"},
	))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events != 4 || rep.Bindings != 1 || rep.Detections != 1 || rep.Recycled != 1 {
		t.Errorf("counts: %+v", rep)
	}
	tl := rep.Timelines["10.5.0.1"]
	if tl == nil {
		t.Fatal("no timeline")
	}
	if tl.Lifetime() != 8.0 {
		t.Errorf("lifetime = %v", tl.Lifetime())
	}
	if tl.DetectedAt-tl.ActiveAt != 1.5 {
		t.Errorf("detect latency = %v", tl.DetectedAt-tl.ActiveAt)
	}
	if rep.MeanLifetime() != 8.0 {
		t.Errorf("mean lifetime = %v", rep.MeanLifetime())
	}
}

func TestAnalyzeRebinding(t *testing.T) {
	rep, err := Analyze(jsonl(
		gateway.Event{T: 1, Kind: gateway.EvBound, Addr: "a"},
		gateway.Event{T: 2, Kind: gateway.EvRecycled, Addr: "a"},
		gateway.Event{T: 5, Kind: gateway.EvBound, Addr: "a"},
	))
	if err != nil {
		t.Fatal(err)
	}
	tl := rep.Timelines["a"]
	if tl.Reboots != 1 || tl.BoundAt != 5 || tl.RecycledAt != -1 {
		t.Errorf("rebinding timeline: %+v", tl)
	}
}

func TestAnalyzeChains(t *testing.T) {
	rep, err := Analyze(jsonl(
		// Patient zero at .1, reflected to .2, which reflects to .3.
		gateway.Event{T: 1, Kind: gateway.EvBound, Addr: "10.5.0.1", Peer: "6.6.6.6"},
		gateway.Event{T: 2, Kind: gateway.EvReflected, Addr: "10.5.0.1", Peer: "99.0.0.1", Detail: "to 10.5.0.2"},
		gateway.Event{T: 2, Kind: gateway.EvBound, Addr: "10.5.0.2", Peer: "10.5.0.1", Detail: "reflected"},
		gateway.Event{T: 4, Kind: gateway.EvReflected, Addr: "10.5.0.2", Peer: "99.0.0.2", Detail: "to 10.5.0.3"},
		gateway.Event{T: 4, Kind: gateway.EvBound, Addr: "10.5.0.3", Peer: "10.5.0.2", Detail: "reflected"},
	))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reflections != 2 {
		t.Errorf("reflections = %d", rep.Reflections)
	}
	want := map[string]int{"10.5.0.1": 1, "10.5.0.2": 2, "10.5.0.3": 3}
	for addr, depth := range want {
		if rep.ChainDepth[addr] != depth {
			t.Errorf("depth[%s] = %d, want %d", addr, rep.ChainDepth[addr], depth)
		}
	}
	if rep.MaxChainDepth != 3 {
		t.Errorf("max depth = %d", rep.MaxChainDepth)
	}
	if tl := rep.Timelines["10.5.0.2"]; !tl.Reflected || tl.ReflectedFrom != "10.5.0.1" {
		t.Errorf("reflected timeline: %+v", tl)
	}
}

func TestAnalyzeCycleGuard(t *testing.T) {
	rep, err := Analyze(jsonl(
		gateway.Event{T: 1, Kind: gateway.EvReflected, Addr: "a", Detail: "to b"},
		gateway.Event{T: 2, Kind: gateway.EvReflected, Addr: "b", Detail: "to a"},
		gateway.Event{T: 3, Kind: gateway.EvBound, Addr: "a"},
		gateway.Event{T: 3, Kind: gateway.EvBound, Addr: "b"},
	))
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxChainDepth < 2 {
		t.Errorf("cycle produced depth %d", rep.MaxChainDepth)
	}
	// Terminates: reaching here is the test.
}

func TestAnalyzeRejectsGarbage(t *testing.T) {
	if _, err := Analyze(strings.NewReader("not json\n")); err == nil {
		t.Error("garbage accepted")
	}
	rep, err := Analyze(strings.NewReader("\n\n"))
	if err != nil || rep.Events != 0 {
		t.Errorf("blank lines: %v %v", rep, err)
	}
}

func TestRenderReport(t *testing.T) {
	rep, _ := Analyze(jsonl(
		gateway.Event{T: 1, Kind: gateway.EvBound, Addr: "10.5.0.1"},
		gateway.Event{T: 1.5, Kind: gateway.EvActive, Addr: "10.5.0.1"},
		gateway.Event{T: 3, Kind: gateway.EvDetected, Addr: "10.5.0.1"},
		gateway.Event{T: 4, Kind: gateway.EvDNSProxied, Addr: "10.5.0.1", Peer: "8.8.8.8"},
	))
	var out bytes.Buffer
	rep.Render(&out)
	s := out.String()
	for _, want := range []string{"detections   1", "dns lookups  1", "compromised VMs", "10.5.0.1"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

func TestTimelinesTable(t *testing.T) {
	rep, _ := Analyze(jsonl(
		gateway.Event{T: 2, Kind: gateway.EvBound, Addr: "10.5.0.2"},
		gateway.Event{T: 1, Kind: gateway.EvBound, Addr: "10.5.0.1"},
		gateway.Event{T: 1.5, Kind: gateway.EvActive, Addr: "10.5.0.1"},
		gateway.Event{T: 9, Kind: gateway.EvRecycled, Addr: "10.5.0.1"},
	))
	tab := rep.TimelinesTable()
	if tab.NumRows() != 2 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	// Sorted by bind time: .1 first.
	if tab.Row(0)[0] != "10.5.0.1" || tab.Row(1)[0] != "10.5.0.2" {
		t.Errorf("order: %v / %v", tab.Row(0), tab.Row(1))
	}
	if tab.Row(0)[5] != "8" { // lifetime
		t.Errorf("lifetime cell = %q", tab.Row(0)[5])
	}
	if tab.Row(1)[4] != "" { // never recycled
		t.Errorf("recycled cell = %q", tab.Row(1)[4])
	}
}

// End to end: run a real incident through the honeyfarm, analyze its
// log, and verify the reconstruction matches the live stats.
func TestAnalyzeRealIncident(t *testing.T) {
	var logBuf bytes.Buffer
	_, liveReflections := newIncidentFarm(t, gateway.JSONLSink(&logBuf, nil))

	rep, err := Analyze(&logBuf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Detections == 0 {
		t.Error("no detections reconstructed")
	}
	if rep.Reflections == 0 || rep.MaxChainDepth < 2 {
		t.Errorf("chains not reconstructed: refl=%d depth=%d", rep.Reflections, rep.MaxChainDepth)
	}
	if uint64(rep.Reflections) != liveReflections {
		t.Errorf("reflections %d != live %d", rep.Reflections, liveReflections)
	}
	var out bytes.Buffer
	rep.Render(&out)
	rep.DumpChains(&out)
	if !strings.Contains(out.String(), "impersonated by") {
		t.Error("chain dump empty")
	}
}
