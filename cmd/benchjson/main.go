// Command benchjson turns `go test -bench` output into the repository's
// BENCH_*.json format. It reads benchmark output on stdin, parses ns/op,
// B/op, and allocs/op per benchmark, and writes them as one JSON
// document with the host they were measured on.
//
// Usage:
//
//	go test -run '^$' -bench PATTERN -benchmem . | benchjson \
//	    -out BENCH_core.json -require BenchmarkE1FlashClone,BenchmarkShardReplayParallel
//
// -require lists benchmark names that must appear in the input; the run
// fails loudly if a rename or pattern typo silently drops one.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Sample is one benchmark's measurements.
type Sample struct {
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
}

// Output is the written document.
type Output struct {
	Description string            `json:"description"`
	Goos        string            `json:"goos,omitempty"`
	Goarch      string            `json:"goarch,omitempty"`
	CPU         string            `json:"cpu,omitempty"`
	Unit        string            `json:"unit"`
	After       map[string]Sample `json:"after"`
}

func main() {
	var (
		outPath = flag.String("out", "BENCH_core.json", "output file")
		desc    = flag.String("description", "", "the output description")
		require = flag.String("require", "", "comma-separated benchmark names that must appear in the input")
	)
	flag.Parse()

	parsed, meta, err := readBench(os.Stdin)
	if err != nil {
		fatal(err)
	}
	if len(parsed) == 0 {
		fatal(fmt.Errorf("no benchmark lines on stdin"))
	}
	if err := checkRequired(*require, parsed); err != nil {
		fatal(err)
	}
	writeOutput(*outPath, Output{
		Description: *desc,
		Goos:        meta.goos,
		Goarch:      meta.goarch,
		CPU:         meta.cpu,
		Unit:        "ns/op",
		After:       parsed,
	})
	fmt.Printf("\nwrote %s (%d benchmarks)\n", *outPath, len(parsed))
}

type benchMeta struct {
	goos, goarch, cpu string
}

// readBench scans `go test -bench` output, echoing each line so the run
// stays readable. The -GOMAXPROCS suffix is stripped from names so they
// match across machines.
func readBench(f *os.File) (map[string]Sample, benchMeta, error) {
	parsed := map[string]Sample{}
	var meta benchMeta
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		switch {
		case strings.HasPrefix(line, "goos:"):
			meta.goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			meta.goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			meta.cpu = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			name, s, ok := parseBenchLine(line)
			if ok {
				parsed[name] = s
			}
		}
	}
	return parsed, meta, sc.Err()
}

// checkRequired fails when a required benchmark is absent from the
// parsed set.
func checkRequired(require string, have map[string]Sample) error {
	for _, want := range strings.Split(require, ",") {
		want = strings.TrimSpace(want)
		if want == "" {
			continue
		}
		if _, found := have[want]; !found {
			return fmt.Errorf("required benchmark %q missing from input (renamed, or dropped by the -bench pattern?)", want)
		}
	}
	return nil
}

func writeOutput(path string, out Output) {
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		fatal(err)
	}
}

// parseBenchLine parses one `go test -bench` result line:
//
//	BenchmarkName-8   1000   123.4 ns/op   56 B/op   7 allocs/op   0.9 custom-unit
//
// Custom units are ignored; only ns/op, B/op, allocs/op are kept.
func parseBenchLine(line string) (string, Sample, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return "", Sample{}, false
	}
	name := fields[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		// strip the -GOMAXPROCS suffix
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	s := Sample{NsPerOp: -1}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			s.NsPerOp = v
		case "B/op":
			b := v
			s.BytesPerOp = &b
		case "allocs/op":
			a := v
			s.AllocsPerOp = &a
		}
	}
	if s.NsPerOp < 0 {
		return "", Sample{}, false
	}
	return name, s, true
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
	os.Exit(1)
}
