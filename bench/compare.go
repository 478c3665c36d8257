package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// -compare a.jsonl b.jsonl: a is the baseline, b the candidate. Each
// file holds one or more runs per workload (one Result per line, as -out
// appends them). Per (metric, workload) it prints both medians with
// their quartiles, the change in the direction that is worse, the bound,
// and a verdict:
//
//	ok          within the bound
//	REGRESSION  worse than the baseline by more than the bound
//	unresolved  the quartile ranges overlap and one of them is wider than
//	            the bound: the spread is too wide to call it unchanged
//	same        an exact metric that matches
//	CHANGED     an exact metric, digest or failure share that differs
//	-           ungated, printed for the reader
//
// The exit code is non-zero on any REGRESSION or CHANGED.

// failShareTolerance is how far the failed-operation share may move.
const failShareTolerance = 0.05

func readResults(path string) ([]Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r Result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// series is one (workload, metric)'s values across a file's runs.
type series struct {
	def         Metric
	q1, med, q3 float64
	values      []float64
	seeds       []uint64 // parallel to values
}

type seriesKey struct{ workload, metric string }

// collect groups a file's metrics. With several runs the quartiles are
// over the runs' medians; with one run they are that run's own.
func collect(results []Result) (map[seriesKey]*series, map[string]map[string][]string, map[string][2]uint64) {
	out := map[seriesKey]*series{}
	digests := map[string]map[string][]string{} // workload -> arm -> digests seen
	ops := map[string][2]uint64{}               // workload -> attempted, failed
	for _, r := range results {
		for _, m := range r.Metrics {
			if m.N == 0 {
				continue
			}
			k := seriesKey{r.Workload, m.Name}
			s := out[k]
			if s == nil {
				s = &series{def: m}
				out[k] = s
			}
			s.values, s.seeds = append(s.values, m.Value), append(s.seeds, r.Seed)
			if len(s.values) == 1 {
				s.q1, s.med, s.q3 = m.P25, m.Value, m.P75
			}
		}
		for arm, d := range r.Digests {
			if digests[r.Workload] == nil {
				digests[r.Workload] = map[string][]string{}
			}
			arm = fmt.Sprintf("%s@seed%d", arm, r.Seed) // a digest is a function of the seed
			digests[r.Workload][arm] = append(digests[r.Workload][arm], d)
		}
		o := ops[r.Workload]
		ops[r.Workload] = [2]uint64{o[0] + r.Attempted, o[1] + r.Failed}
	}
	for _, s := range out {
		if len(s.values) > 1 {
			v := append([]float64(nil), s.values...)
			sort.Float64s(v)
			s.q1, s.med, s.q3 = quantile(v, 0.25), quantile(v, 0.5), quantile(v, 0.75)
		}
	}
	return out, digests, ops
}

// exactMatch reports whether every value agrees with every other value
// measured at the same seed, across both sets.
func exactMatch(a, b *series) bool {
	bySeed := map[uint64]float64{}
	for _, s := range []*series{a, b} {
		for i, v := range s.values {
			if first, ok := bySeed[s.seeds[i]]; ok && first != v {
				return false
			}
			bySeed[s.seeds[i]] = v
		}
	}
	return true
}

// verdict judges candidate b against baseline a.
func verdict(a, b *series) (worse float64, v string, fail bool) {
	if a.med != 0 {
		worse = (b.med - a.med) / math.Abs(a.med)
		if a.def.Better == "higher" {
			worse = -worse
		}
	}
	switch {
	case a.def.Exact:
		if exactMatch(a, b) {
			return worse, "same", false
		}
		return worse, "CHANGED", true
	case a.def.Bound == 0:
		return worse, "-", false
	case worse > a.def.Bound:
		return worse, "REGRESSION", true
	}
	overlap := math.Min(a.q3, b.q3) >= math.Max(a.q1, b.q1)
	widest := math.Max(a.q3-a.q1, b.q3-b.q1)
	if a.med != 0 && overlap && widest/math.Abs(a.med) > a.def.Bound {
		return worse, "unresolved", false
	}
	return worse, "ok", false
}

// compareFiles prints the comparison and returns the exit code.
func compareFiles(w io.Writer, pathA, pathB string) int {
	ra, err := readResults(pathA)
	if err == nil && len(ra) == 0 {
		err = fmt.Errorf("%s holds no results", pathA)
	}
	var rb []Result
	if err == nil {
		if rb, err = readResults(pathB); err == nil && len(rb) == 0 {
			err = fmt.Errorf("%s holds no results", pathB)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: -compare: %v\n", err)
		return 2
	}
	sa, da, oa := collect(ra)
	sb, db, ob := collect(rb)

	keys := make([]seriesKey, 0, len(sa))
	for k := range sa {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		// Keep the declaration order of metricDefs within a workload.
		return defIndex(keys[i].metric) < defIndex(keys[j].metric)
	})
	failures := 0
	fmt.Fprintf(w, "%-20s %-34s %12s %25s %12s %25s %9s %6s  %s\n",
		"workload", "metric", "a.median", "a.[q1..q3]", "b.median", "b.[q1..q3]", "worse%", "bound%", "verdict")
	for _, k := range keys {
		a, b := sa[k], sb[k]
		if b == nil {
			fmt.Fprintf(w, "%-20s %-34s %12.6g %25s %12s %25s %9s %6s  %s\n", k.workload, k.metric, a.med, "", "missing", "", "", "", "CHANGED")
			failures++
			continue
		}
		worse, v, fail := verdict(a, b)
		if fail {
			failures++
		}
		bound := "-"
		if a.def.Exact {
			bound = "exact"
		} else if a.def.Bound > 0 {
			bound = fmt.Sprintf("%.0f", 100*a.def.Bound)
		}
		fmt.Fprintf(w, "%-20s %-34s %12.6g %25s %12.6g %25s %+9.2f %6s  %s\n", k.workload, k.metric,
			a.med, fmt.Sprintf("[%.5g..%.5g]", a.q1, a.q3), b.med, fmt.Sprintf("[%.5g..%.5g]", b.q1, b.q3), 100*worse, bound, v)
	}

	workloads := make([]string, 0, len(oa))
	for wl := range oa {
		workloads = append(workloads, wl)
	}
	sort.Strings(workloads)
	for _, wl := range workloads {
		arms := make([]string, 0, len(da[wl]))
		for arm := range da[wl] {
			arms = append(arms, arm)
		}
		sort.Strings(arms)
		same := 0
		for _, arm := range arms {
			changed := len(db[wl][arm]) == 0
			all := append(append([]string(nil), da[wl][arm]...), db[wl][arm]...)
			for _, d := range all {
				changed = changed || d != all[0]
			}
			if !changed {
				same++
				continue
			}
			failures++
			fmt.Fprintf(w, "%-20s sim_digest[%s] %s  CHANGED\n", wl, arm, all[0])
		}
		fmt.Fprintf(w, "%-20s sim_digest: %d of %d (arm, seed) pairs the same\n", wl, same, len(arms))
		share := func(o [2]uint64) float64 {
			if o[0] == 0 {
				return 0
			}
			return float64(o[1]) / float64(o[0])
		}
		fa, fb := share(oa[wl]), share(ob[wl])
		v := "ok"
		if math.Abs(fb-fa) > failShareTolerance {
			v = "CHANGED"
			failures++
		}
		fmt.Fprintf(w, "%-20s failed-operation share a=%.4f b=%.4f (tolerance %.2f)  %s\n", wl, fa, fb, failShareTolerance, v)
	}
	if failures > 0 {
		fmt.Fprintf(w, "%d comparisons failed\n", failures)
		return 1
	}
	fmt.Fprintln(w, "all gated comparisons hold")
	return 0
}
