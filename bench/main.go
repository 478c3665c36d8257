// Command bench is the repository's benchmark: five steady-state
// workloads driven through the potemkin facade, engine arms, and a
// seam-traced per-layer ledger that reconciles with the end-to-end
// numbers. See README.md in this directory.
//
//	go run ./bench -workload <name|all> -seed <n> [-seconds s] [-trace 0|1] [-out f.jsonl]
//	go run ./bench -compare a.jsonl b.jsonl
//
// Every input is generated from -seed; the program under test receives
// only generated packets and records. The last line of standard output
// is one JSON object {correct, attempted, failed, metrics}; the exit
// code is non-zero if any output check fails.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// processStart anchors setup_s: package initialisation is as early as
// a Go program can read the clock.
var processStart = time.Now()

// workload is one registered input mix.
type workload struct {
	why string
	run func(r *run) error
}

// workloads is filled by the init functions beside each workload.
var workloads = map[string]workload{}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// defaultOutDir is where traced runs leave their spans.
var defaultOutDir = filepath.Join("bench", "out")

// execute runs one workload in this process and returns its result.
func execute(cfg runConfig) (Result, error) {
	w, ok := workloads[cfg.Workload]
	if !ok {
		return Result{}, fmt.Errorf("unknown workload %q (have %v)", cfg.Workload, workloadNames())
	}
	r := newRun(cfg)
	if err := w.run(r); err != nil {
		return Result{}, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	return r.result(readEnv())
}

// appendResult appends res as one JSON line to path.
func appendResult(path string, res Result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

var errIncorrect = errors.New("output checks failed")

// runOne executes, prints the table and the contract line, and writes
// -out.
func runOne(cfg runConfig, out string) error {
	res, err := execute(cfg)
	if err != nil {
		return err
	}
	printResult(res)
	if out != "" {
		if err := appendResult(out, res); err != nil {
			return err
		}
	}
	line, err := contractLine(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// runMany runs each (workload, trace) pair in a child process of this
// binary, so no run inherits another's heap, peak RSS or warmed caches.
func runMany(names []string, traces []bool, cfg runConfig, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	failed := 0
	for _, name := range names {
		for _, tr := range traces {
			args := []string{
				"-workload", name, "-seed", strconv.FormatUint(cfg.Seed, 10),
				"-seconds", strconv.Itoa(cfg.Seconds), "-trace", map[bool]string{false: "0", true: "1"}[tr],
			}
			if out != "" {
				args = append(args, "-out", out)
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s trace=%v: %v\n", name, tr, err)
				failed++
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d runs failed", failed, len(names)*len(traces))
	}
	return nil
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload name, or all")
		seed    = flag.Uint64("seed", 1, "seed for every generator (1 is the development seed, 2 the check seed)")
		seconds = flag.Int("seconds", 10, "sizes each timed region to last about this long on the reference host")
		trace   = flag.String("trace", "", "0: untraced end-to-end run; 1: ledger run (arms, seam spans, probes); default 0, or both with -workload all")
		out     = flag.String("out", "", "append each result as a JSON line to this file")
		compare = flag.String("compare", "", "compare two result files: -compare a.jsonl b.jsonl")
	)
	flag.Parse()
	if *compare != "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two files: -compare a.jsonl b.jsonl")
			os.Exit(2)
		}
		os.Exit(compareFiles(os.Stdout, *compare, flag.Arg(0)))
	}
	if *seconds < 1 || *seconds > 60 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be in 1..60")
		os.Exit(2)
	}
	var traces []bool
	switch *trace {
	case "0":
		traces = []bool{false}
	case "1":
		traces = []bool{true}
	case "":
		traces = []bool{false}
		if *name == "all" {
			traces = []bool{false, true}
		}
	default:
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		os.Exit(2)
	}
	cfg := runConfig{Workload: *name, Seed: *seed, Seconds: *seconds, Scale: 1, OutDir: defaultOutDir}
	var err error
	if *name == "all" {
		err = runMany(workloadNames(), traces, cfg, *out)
	} else {
		cfg.Trace = traces[0]
		err = runOne(cfg, *out)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}
