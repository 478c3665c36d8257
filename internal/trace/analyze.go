package trace

import (
	"fmt"
	"sort"
	"strings"

	"potemkin/internal/metrics"
)

// Analysis is the offline view of a recorded trace: per-stage latency
// distributions keyed by span name, and the span trees reassembled per
// trace ID. inspect trace renders it; tests drive it directly.
type Analysis struct {
	Spans  int
	Traces int

	// Roots are the top-level spans (Parent == 0) in stream order.
	Roots []*Record

	children map[uint64][]*Record // span id -> children, stream order
	stages   map[string]*metrics.Histogram
}

// Analyze reassembles records (as read by ReadAll) into an Analysis.
func Analyze(recs []Record) *Analysis {
	a := &Analysis{
		Spans:    len(recs),
		children: make(map[uint64][]*Record),
		stages:   make(map[string]*metrics.Histogram),
	}
	traces := make(map[uint64]struct{})
	for i := range recs {
		r := &recs[i]
		traces[r.Trace] = struct{}{}
		if r.Parent == 0 {
			a.Roots = append(a.Roots, r)
		} else {
			a.children[r.Parent] = append(a.children[r.Parent], r)
		}
		h := a.stages[r.Name]
		if h == nil {
			h = &metrics.Histogram{}
			a.stages[r.Name] = h
		}
		h.Observe(float64(r.DurationNS()) / 1e6)
	}
	a.Traces = len(traces)
	return a
}

// Children returns the direct children of span id, in stream order.
func (a *Analysis) Children(id uint64) []*Record { return a.children[id] }

// StageNames returns the span names seen, sorted.
func (a *Analysis) StageNames() []string {
	names := make([]string, 0, len(a.stages))
	for n := range a.stages {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Stage returns the latency histogram (milliseconds) for the named
// span, or nil.
func (a *Analysis) Stage(name string) *metrics.Histogram { return a.stages[name] }

// StageTable renders the per-stage latency percentiles, one row per
// span name, sorted by name.
func (a *Analysis) StageTable() *metrics.Table {
	t := metrics.NewTable("Per-stage latency (ms)",
		"stage", "count", "mean", "p50", "p90", "p99", "max")
	for _, name := range a.StageNames() {
		h := a.stages[name]
		t.AddRow(name, h.Count(), h.Mean(),
			h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99), h.Max())
	}
	return t
}

// SlowestRoots returns the n slowest roots with the given span name
// (longest duration first; ties broken by trace ID so the order is
// deterministic).
func (a *Analysis) SlowestRoots(name string, n int) []*Record {
	var roots []*Record
	for _, r := range a.Roots {
		if r.Name == name {
			roots = append(roots, r)
		}
	}
	sort.Slice(roots, func(i, j int) bool {
		di, dj := roots[i].DurationNS(), roots[j].DurationNS()
		if di != dj {
			return di > dj
		}
		return roots[i].Trace < roots[j].Trace
	})
	if n > 0 && len(roots) > n {
		roots = roots[:n]
	}
	return roots
}

// CriticalPath walks from root down through the latest-finishing child
// at each level — the chain of spans that determined when the root
// could end. For a binding that is bind → spawn → place → clone, or
// bind → active, whichever ran longest.
func (a *Analysis) CriticalPath(root *Record) []*Record {
	path := []*Record{root}
	cur := root
	for {
		kids := a.children[cur.Span]
		if len(kids) == 0 {
			return path
		}
		next := kids[0]
		for _, k := range kids[1:] {
			if k.EndNS > next.EndNS || (k.EndNS == next.EndNS && k.Span < next.Span) {
				next = k
			}
		}
		path = append(path, next)
		cur = next
	}
}

// FormatPath renders a critical path on one line:
//
//	binding[10.5.0.9] 812.4ms > spawn 795.0ms > place[s1] 790.2ms > clone 780.0ms
func FormatPath(path []*Record) string {
	var sb strings.Builder
	for i, r := range path {
		if i > 0 {
			sb.WriteString(" > ")
		}
		sb.WriteString(r.Name)
		if v := r.Attr("addr"); v != "" {
			fmt.Fprintf(&sb, "[%s]", v)
		} else if v := r.Attr("server"); v != "" {
			fmt.Fprintf(&sb, "[%s]", v)
		}
		fmt.Fprintf(&sb, " %.1fms", float64(r.DurationNS())/1e6)
	}
	return sb.String()
}
