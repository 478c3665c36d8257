package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"potemkin"
)

// Env describes the host a result was measured on. nproc is 2 on the
// reference host; every workload uses one generator goroutine and one
// UDP socket over the host loopback.
type Env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Kernel     string `json:"kernel"`
}

func readEnv() Env {
	e := Env{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Kernel:     "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	return e
}

// Check is one output check and whether it held.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// Result is one run of one workload: what -out appends (one JSON object
// per line) and -compare reads.
type Result struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	Env      Env    `json:"env"`
	// Valid is false, with the reason, when a validity check tripped:
	// the generator ran late, a lossless workload lost frames, or
	// GOMAXPROCS exceeds nproc. An invalid run also fails.
	Valid  bool   `json:"valid"`
	Reason string `json:"reason,omitempty"`
	// Checks are the output checks; Correct is their conjunction.
	Checks  []Check `json:"checks"`
	Correct bool    `json:"correct"`
	// Attempted and Failed count operations: frames or records sent,
	// and those not delivered to a guest.
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
	// Digests holds sim_digest per arm: FNV-64a of the final Stats and
	// snapshot bytes, so a reviewer sees at once whether a change meant
	// to alter only speed altered simulated results.
	Digests map[string]string `json:"sim_digest,omitempty"`
	Metrics []Metric          `json:"metrics"`
	// Ledger is the traced run's reconciliation, largest share first,
	// and Spans the file its spans were written to.
	Ledger []ledgerLine `json:"ledger,omitempty"`
	Spans  string       `json:"spans,omitempty"`
}

// runConfig is one invocation's parameters.
type runConfig struct {
	Workload string
	Seed     uint64
	Seconds  int
	Trace    bool
	// Scale shrinks warm-up and trace sizes; 1 is full size, the smoke
	// test runs near 0.01. Input shapes never change with it.
	Scale float64
	// OutDir receives <workload>.spans.jsonl on traced runs.
	OutDir string
	// Sabotage lets the smoke test drive each output check in its
	// failing direction; empty in real runs.
	Sabotage string
}

// scaled returns n shrunk by the run's scale, at least min.
func (c runConfig) scaled(n, min int) int { return max(int(float64(n)*c.Scale), min) }

// setupRepeats is how many times a workload sets up, so that setup_s is
// a median; the smoke test sets up once.
func (c runConfig) setupRepeats() int {
	if c.Scale < 1 {
		return 1
	}
	return 3
}

// minSamples is the fewest slices or iterations behind a median.
func (c runConfig) minSamples() int {
	if c.Scale < 1 {
		return 2
	}
	return 5
}

// run accumulates one workload run's samples, checks and validity.
type run struct {
	cfg      runConfig
	samples  map[string][]float64
	checks   []Check
	invalid  []string
	digests  map[string]string
	attempts uint64
	failed   uint64
	// ledger and spansPath are set by traced runs.
	ledger    []ledgerLine
	spansPath string
}

func newRun(cfg runConfig) *run {
	return &run{cfg: cfg, samples: map[string][]float64{}, digests: map[string]string{}}
}

// sample appends one observation of the named metric.
func (r *run) sample(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

// set records a metric observed once.
func (r *run) set(name string, v float64) { r.samples[name] = []float64{v} }

func (r *run) check(name string, ok bool, format string, args ...any) {
	c := Check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.checks = append(r.checks, c)
}

func (r *run) invalidate(format string, args ...any) {
	r.invalid = append(r.invalid, fmt.Sprintf(format, args...))
}

// ops adds to the operation counts.
func (r *run) ops(attempted, failed uint64) {
	r.attempts += attempted
	r.failed += failed
}

// digest records arm's sim_digest and checks it against earlier
// iterations of the same arm.
func (r *run) digest(arm, d string) {
	if prev, ok := r.digests[arm]; ok {
		r.check("digest-repeats/"+arm, prev == d, "iteration digest %s differs from %s", d, prev)
		return
	}
	r.digests[arm] = d
}

// result folds the run into a Result, filling every metric of the
// run's kind that was not measured on this workload with an n=0 zero.
func (r *run) result(env Env) (Result, error) {
	res := Result{
		Workload: r.cfg.Workload, Seed: r.cfg.Seed, Seconds: r.cfg.Seconds, Trace: r.cfg.Trace,
		Env: env, Checks: r.checks, Digests: r.digests, Attempted: r.attempts, Failed: r.failed,
		Ledger: r.ledger, Spans: r.spansPath,
	}
	if env.GOMAXPROCS > env.NProc {
		r.invalidate("GOMAXPROCS %d > nproc %d", env.GOMAXPROCS, env.NProc)
	}
	res.Valid = len(r.invalid) == 0
	res.Reason = strings.Join(r.invalid, "; ")
	res.Correct = res.Valid
	for _, c := range r.checks {
		res.Correct = res.Correct && c.OK
	}
	kind := kindE2E
	if r.cfg.Trace {
		kind = kindLayer
	}
	for name := range r.samples {
		d := defOf(name)
		if d == nil {
			return res, fmt.Errorf("metric %q is not declared in metricDefs", name)
		}
		if d.Kind != kind {
			return res, fmt.Errorf("metric %q (%s) emitted by a %s run", name, d.Kind, kind)
		}
	}
	for i := range metricDefs {
		d := &metricDefs[i]
		if d.Kind != kind {
			continue
		}
		m, err := summarize(d, r.cfg.Workload, r.samples[d.Name])
		if err != nil {
			return res, err
		}
		if m.N == 0 && d.on(r.cfg.Workload) {
			return res, fmt.Errorf("metric %q was not measured on %s", d.Name, r.cfg.Workload)
		}
		res.Metrics = append(res.Metrics, m)
	}
	return res, nil
}

// contractLine renders the driver's last-line object: every metric of
// the run's kind by name, value as measured, with its unit.
func contractLine(res Result) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]mv{}}
	for _, m := range res.Metrics {
		out.Metrics[m.Name] = mv{m.Value, m.Unit}
	}
	return json.Marshal(out)
}

// printResult writes the human-readable table: every metric by name
// with unit, direction and sample count.
func printResult(res Result) {
	e := res.Env
	fmt.Printf("# %s seed=%d seconds=%d trace=%v | nproc=%d GOMAXPROCS=%d %s commit=%s kernel=%s | 1 generator goroutine, 1 UDP socket, host loopback\n",
		res.Workload, res.Seed, res.Seconds, res.Trace, e.NProc, e.GOMAXPROCS, e.GoVersion, e.Commit, e.Kernel)
	fmt.Printf("%-36s %14s %-9s %-6s %4s %14s %14s %14s\n", "metric", "median", "unit", "better", "n", "p25", "p75", "min")
	for _, m := range res.Metrics {
		if m.N == 0 {
			fmt.Printf("%-36s %14s %-9s %-6s %4d\n", m.Name, "n/a", m.Unit, m.Better, 0)
			continue
		}
		fmt.Printf("%-36s %14.6g %-9s %-6s %4d %14.6g %14.6g %14.6g\n",
			m.Name, m.Value, m.Unit, m.Better, m.N, m.P25, m.P75, m.Min)
	}
	arms := make([]string, 0, len(res.Digests))
	for a := range res.Digests {
		arms = append(arms, a)
	}
	sort.Strings(arms)
	for _, a := range arms {
		fmt.Printf("sim_digest[%s] %s\n", a, res.Digests[a])
	}
	if len(res.Ledger) > 0 {
		printLedger(res.Workload, res.Ledger)
		fmt.Printf("spans: %s\n", res.Spans)
	}
	fmt.Printf("operations: attempted=%d failed=%d\n", res.Attempted, res.Failed)
	for _, c := range res.Checks {
		if !c.OK {
			fmt.Printf("CHECK FAILED %s: %s\n", c.Name, c.Detail)
		}
	}
	if !res.Valid {
		fmt.Printf("valid=false: %s\n", res.Reason)
	} else {
		fmt.Printf("valid=true checks=%d correct=%v\n", len(res.Checks), res.Correct)
	}
}

// finalState is what a farm simulated: its Stats and its snapshot JSON
// (MarshalSnapshot's bytes, minus the wire listener's wall-clock-dependent
// queue accounting). Arms compare it byte for byte; digest hashes it.
type finalState struct {
	stats    potemkin.Stats
	snapshot []byte
}

func readFinalState(hf *potemkin.Honeyfarm) (finalState, error) {
	snap := hf.Snapshot()
	snap.Ingest = nil
	b, err := json.MarshalIndent(snap, "", "  ")
	return finalState{hf.Stats(), b}, err
}

func (f finalState) equal(g finalState) bool {
	return f.stats == g.stats && bytes.Equal(f.snapshot, g.snapshot)
}

// digest is the run's sim_digest: FNV-64a of the final state.
func (f finalState) digest() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v\n", f.stats)
	h.Write(f.snapshot)
	return fmt.Sprintf("%016x", h.Sum64())
}

// simDigest hashes hf's final state.
func simDigest(hf *potemkin.Honeyfarm) (string, error) {
	f, err := readFinalState(hf)
	return f.digest(), err
}

// simMiBPerVM is the simulated memory a live VM holds at the end of a
// run: the paper's delta-virtualization figure.
func simMiBPerVM(st potemkin.Stats) float64 {
	return float64(st.MemoryInUse) / (1 << 20) / float64(max(st.LiveVMs, 1))
}

// procSample is a point reading of process-wide cost counters.
type procSample struct {
	wall     time.Time
	cpu      time.Duration
	alloc    uint64
	mallocs  uint64
	gcCycles uint32
	gcPause  time.Duration
}

func readProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return procSample{
		wall: time.Now(), cpu: cpu, alloc: ms.TotalAlloc, mallocs: ms.Mallocs,
		gcCycles: ms.NumGC, gcPause: time.Duration(ms.PauseTotalNs),
	}
}

// collectGarbage frees the previous iteration's farm off the clock. Two
// collections, because a closed multi-shard engine survives the first:
// its pooled cross-shard envelopes point back at the engine, and a
// sync.Pool's contents live through one cycle (README, findings).
func collectGarbage() {
	runtime.GC()
	runtime.GC()
}

// liveHeapMiB forces a collection and returns what survives it.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
