package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md's E11 hot-path block from BENCH_core.json")

// hotPathMarker is the line in EXPERIMENTS.md whose fenced block is the
// E11 hot-path table.
const hotPathMarker = "Hot path (`make bench`, recorded in BENCH_core.json):"

// hotPath lists the table's rows: the benchmark (without its Benchmark
// prefix) and the note, which is prose. %s in a note is the row's
// packet rate, 1e9 / ns_per_op.
var hotPath = []struct{ bench, note string }{
	{"IngestDecap", "ts strip + GRE decap + in-place IPv4 parse"},
	{"WireSenderEncap", "sender-side framing, appended to the train"},
	{"KernelHeap", "schedule + fire through the heap, 2,048 pending"},
	{"KernelLane", "the same through a lane"},
	{"E11WireIngest", "end-to-end: socket -> decap -> full honeyfarm,\nflow-controlled (lossless) ~ %s pps"},
}

// renderHotPath renders the table from a BENCH_*.json document.
func renderHotPath(doc Output) (string, error) {
	var b strings.Builder
	row := func(name, ns, allocs, note string) {
		fmt.Fprintf(&b, "%-25s%-8s%-11s%s\n", name, ns, allocs, note)
	}
	row("benchmark", "ns/op", "allocs/op", "note")
	for _, r := range hotPath {
		s, ok := doc.After["Benchmark"+r.bench]
		if !ok || s.AllocsPerOp == nil {
			return "", fmt.Errorf("Benchmark%s: no ns/op and allocs/op recorded", r.bench)
		}
		note := r.note
		if strings.Contains(note, "%s") {
			note = fmt.Sprintf(note, fmt.Sprintf("%.0fk", math.Round(1e9/s.NsPerOp/1e3)))
		}
		lines := strings.Split(note, "\n")
		row(r.bench, fmt.Sprint(s.NsPerOp), fmt.Sprint(*s.AllocsPerOp), lines[0])
		for _, l := range lines[1:] {
			row("", "", "", l)
		}
	}
	return b.String(), nil
}

// TestExperimentsHotPathTable: EXPERIMENTS.md's E11 hot-path numbers are
// the ones BENCH_core.json records, not a hand-copied reading. After
// `make bench`, run `go test ./cmd/benchjson -update` to regenerate.
func TestExperimentsHotPathTable(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_core.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc Output
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	want, err := renderHotPath(doc)
	if err != nil {
		t.Fatal(err)
	}

	const path = "../../EXPERIMENTS.md"
	md, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := string(md)
	m := strings.Index(text, hotPathMarker)
	if m < 0 {
		t.Fatalf("%s: no line %q", path, hotPathMarker)
	}
	open := strings.Index(text[m:], "```\n")
	if open < 0 {
		t.Fatalf("%s: no fenced block after %q", path, hotPathMarker)
	}
	start := m + open + len("```\n")
	end := strings.Index(text[start:], "```\n")
	if end < 0 {
		t.Fatalf("%s: unterminated fenced block after %q", path, hotPathMarker)
	}
	end += start
	if got := text[start:end]; got != want {
		if !*update {
			t.Fatalf("%s's E11 hot-path block differs from BENCH_core.json (go test ./cmd/benchjson -update rewrites it):\n got:\n%s\nwant:\n%s", path, got, want)
		}
		if err := os.WriteFile(path, []byte(text[:start]+want+text[end:]), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s's E11 hot-path block", path)
	}
}
