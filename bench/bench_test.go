package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"potemkin"
)

// smokeConfig runs a workload at about 1/100 scale.
func smokeConfig(t *testing.T, workload string, trace bool) runConfig {
	return runConfig{Workload: workload, Seed: 1, Seconds: 1, Trace: trace, Scale: 0.01, OutDir: t.TempDir()}
}

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// gatedWorkloads are the workloads BENCHMARK.json lists: the ones whose
// end-to-end numbers repeat on the reference host (README, "What the
// driver gates").
var gatedWorkloads = []string{wReplay, wScenario, wWarm}

// wantContract renders BENCHMARK.json from metricDefs and workloads.
func wantContract() contract {
	c := contract{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: 10}
	for _, name := range gatedWorkloads {
		c.Workloads = append(c.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{name, workloads[name].why})
	}
	for _, d := range metricDefs {
		m := contractMetric{Name: d.Name, Unit: d.Unit, Better: d.Better}
		if d.Kind == kindE2E {
			b := d.Bound
			m.Bound = &b
			c.EndToEnd = append(c.EndToEnd, m)
		} else {
			c.PerLayer = append(c.PerLayer, m)
		}
	}
	return c
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables in this package
// and to the driver's limits. BENCH_WRITE_JSON=1 rewrites the file.
func TestBenchmarkJSON(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	want, err := json.MarshalIndent(wantContract(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if os.Getenv("BENCH_WRITE_JSON") != "" {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json is out of date with metricDefs/workloads; rerun with BENCH_WRITE_JSON=1\n got: %s\nwant: %s", got, want)
	}

	c := wantContract()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the grammar", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(c.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range c.Workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(c.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(c.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	hasSetup := false
	for _, m := range append(append([]contractMetric(nil), c.EndToEnd...), c.PerLayer...) {
		use(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q breaks the grammar", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
		if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" && m.Bound != nil {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s end-to-end metric")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(got))
	}
}

// TestSmoke runs every workload, untraced and traced, at about 1/100
// scale, and asserts the contract's shape: every metric of the run's
// kind exactly once, finite, and measured wherever it is declared.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			name, trace := name, trace
			t.Run(name+map[bool]string{false: "/e2e", true: "/ledger"}[trace], func(t *testing.T) {
				if testing.Short() && strings.HasPrefix(name, "wire-") {
					t.Skip("wire workloads open sockets and run seconds; skipped under -short")
				}
				res, err := execute(smokeConfig(t, name, trace))
				if err != nil {
					t.Fatal(err)
				}
				// Timing validity (a late generator) is the host's to
				// decide; the output checks are not.
				for _, c := range res.Checks {
					if !c.OK {
						t.Errorf("check %s failed: %s", c.Name, c.Detail)
					}
				}
				kind := kindE2E
				if trace {
					kind = kindLayer
				}
				seen := map[string]int{}
				for _, m := range res.Metrics {
					seen[m.Name]++
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s is not finite", m.Name)
					}
					if m.Kind == kindE2E && m.Value == 0 {
						t.Errorf("end-to-end metric %s is 0", m.Name)
					}
				}
				for _, d := range metricDefs {
					if d.Kind != kind {
						continue
					}
					if seen[d.Name] != 1 {
						t.Errorf("%s emitted %d times", d.Name, seen[d.Name])
					}
				}
				if len(seen) != len(res.Metrics) {
					t.Errorf("%d distinct names in %d metrics", len(seen), len(res.Metrics))
				}
				line, err := contractLine(res)
				if err != nil {
					t.Fatal(err)
				}
				var parsed struct {
					Correct   *bool                      `json:"correct"`
					Attempted *uint64                    `json:"attempted"`
					Failed    *uint64                    `json:"failed"`
					Metrics   map[string]json.RawMessage `json:"metrics"`
				}
				if err := json.Unmarshal(line, &parsed); err != nil {
					t.Fatal(err)
				}
				if parsed.Correct == nil || parsed.Attempted == nil || parsed.Failed == nil || *parsed.Attempted < 1 {
					t.Errorf("contract line %s lacks correct/attempted/failed", line)
				}
				if len(parsed.Metrics) != len(res.Metrics) {
					t.Errorf("contract line has %d metrics, result %d", len(parsed.Metrics), len(res.Metrics))
				}
				if trace {
					if _, err := os.Stat(res.Spans); err != nil {
						t.Errorf("spans file: %v", err)
					}
					var sum float64
					for _, l := range res.Ledger[:len(res.Ledger)-1] {
						sum += l.NsPerPk
					}
					if wall := res.Ledger[len(res.Ledger)-1].NsPerPk; math.Abs(sum-wall) > 1e-6*wall {
						t.Errorf("ledger rows sum to %v ns/pkt, wall is %v", sum, wall)
					}
				}
			})
		}
	}
}

// The tests below drive each output check in its failing direction.

func failedChecks(res Result) []string {
	var out []string
	for _, c := range res.Checks {
		if !c.OK {
			out = append(out, c.Name)
		}
	}
	return out
}

func TestLossyClosedLoopFails(t *testing.T) {
	if testing.Short() {
		t.Skip("opens sockets")
	}
	cfg := smokeConfig(t, wWarm, false)
	cfg.Sabotage = "lossy-closed-loop"
	res, err := execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Valid || !strings.Contains(res.Reason, "lossless workload lost 7") {
		t.Errorf("lossy closed loop: correct=%v valid=%v reason=%q", res.Correct, res.Valid, res.Reason)
	}
	if got := failedChecks(res); len(got) != 1 || got[0] != "lossless" {
		t.Errorf("failed checks %v, want [lossless]", got)
	}
	if res.Failed != 7 {
		t.Errorf("failed operations %d, want 7", res.Failed)
	}
}

func TestPerturbedOracleFails(t *testing.T) {
	cfg := smokeConfig(t, wReplay, true)
	cfg.Sabotage = "perturbed-oracle"
	res, err := execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := failedChecks(res); res.Correct || len(got) == 0 || got[0] != "oracle-equal/parallel" {
		t.Errorf("perturbed oracle: correct=%v failed checks %v", res.Correct, got)
	}
}

func TestDigestMustRepeat(t *testing.T) {
	r := newRun(runConfig{})
	r.digest("default", "aaaa")
	r.digest("default", "aaaa")
	r.digest("default", "bbbb")
	if len(r.checks) != 2 || !r.checks[0].OK || r.checks[1].OK {
		t.Errorf("checks %+v", r.checks)
	}
}

func TestConservationGapFails(t *testing.T) {
	r := newRun(runConfig{})
	in := potemkin.IngestSummary{Received: 100, Delivered: 90, Dropped: 5, FrameErrors: 1}
	wireChecks(r, in, potemkin.Stats{InboundPackets: 90}, 100, false)
	if got := failedChecks(Result{Checks: r.checks}); len(got) != 1 || got[0] != "conservation" {
		t.Errorf("failed checks %v, want [conservation]", got)
	}
}

func TestLateGeneratorInvalidates(t *testing.T) {
	r := newRun(runConfig{})
	ol := openLoop{scheduled: 1200, sent: 1200}
	for i := 0; i < 100; i++ {
		ol.lateUS = append(ol.lateUS, 2*float64(coldSkipLag/time.Microsecond))
	}
	coldValidity(r, ol)
	ol.lateUS, ol.sent = []float64{10}, 1100
	coldValidity(r, ol)
	if len(r.invalid) != 2 || !strings.Contains(r.invalid[0], "generator late") || !strings.Contains(r.invalid[1], "of its schedule") {
		t.Errorf("invalid reasons %q", r.invalid)
	}
}

func TestOversubscribedHostInvalidates(t *testing.T) {
	r := newRun(runConfig{Workload: wWarm})
	res, _ := r.result(Env{NProc: 2, GOMAXPROCS: 4}) // the error is for the metrics this empty run lacks
	if res.Valid || !strings.Contains(res.Reason, "GOMAXPROCS 4 > nproc 2") {
		t.Errorf("valid=%v reason=%q", res.Valid, res.Reason)
	}
}

// TestCompare drives -compare through each verdict.
func TestCompare(t *testing.T) {
	mk := func(pps, p25, p75, events float64, digest string, failed uint64) Result {
		return Result{
			Workload: wWarm, Seed: 1, Attempted: 100, Failed: failed, Digests: map[string]string{"default": digest},
			Metrics: []Metric{
				{Name: "pps", Better: "higher", Bound: 0.10, Value: pps, P25: p25, P75: p75, N: 5},
				{Name: "sim.events_per_pkt", Better: "lower", Exact: true, Value: events, P25: events, P75: events, N: 1},
				{Name: "ingest.queue_hwm", Better: "lower", Value: 5, P25: 5, P75: 5, N: 1},
			},
		}
	}
	write := func(name string, rs ...Result) string {
		path := filepath.Join(t.TempDir(), name)
		for _, r := range rs {
			if err := appendResult(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a.jsonl", mk(1000, 990, 1010, 3, "d1", 0))
	for _, tc := range []struct {
		name string
		b    Result
		code int
		want string
	}{
		{"same", mk(995, 985, 1005, 3, "d1", 0), 0, " ok"},
		{"regression", mk(850, 840, 860, 3, "d1", 0), 1, "REGRESSION"},
		{"wide spread", mk(990, 800, 1300, 3, "d1", 0), 0, "unresolved"},
		{"exact moved", mk(1000, 990, 1010, 4, "d1", 0), 1, "CHANGED"},
		{"digest moved", mk(1000, 990, 1010, 3, "d2", 0), 1, "sim_digest[default@seed1] d1  CHANGED"},
		{"more failures", mk(1000, 990, 1010, 3, "d1", 9), 1, "failed-operation share a=0.0000 b=0.0900 (tolerance 0.05)  CHANGED"},
	} {
		var out bytes.Buffer
		code := compareFiles(&out, base, write("b.jsonl", tc.b))
		if code != tc.code || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: exit %d (want %d), output lacks %q:\n%s", tc.name, code, tc.code, tc.want, out.String())
		}
	}
	// Several runs per set: quartiles come from across the runs.
	a := write("a5.jsonl", mk(1000, 0, 0, 3, "d1", 0), mk(1010, 0, 0, 3, "d1", 0), mk(990, 0, 0, 3, "d1", 0))
	b := write("b5.jsonl", mk(700, 0, 0, 3, "d1", 0), mk(1400, 0, 0, 3, "d1", 0), mk(1005, 0, 0, 3, "d1", 0))
	var out bytes.Buffer
	if code := compareFiles(&out, a, b); code != 0 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("multi-run sets: exit %d:\n%s", code, out.String())
	}
}
