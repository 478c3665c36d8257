// Package analysis reconstructs incidents from the gateway's forensic
// event log: per-address binding timelines, detection latencies, and —
// the honeyfarm's signature artifact — infection chains stitched from
// internal-reflection events (VM A attacked external host X, the
// gateway impersonated X with VM B, B got infected and attacked Y…).
//
// It consumes the JSONL stream produced by gateway.JSONLSink (or the
// potemkind -eventlog flag) after the fact; nothing here runs inside
// the simulation.
package analysis

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"potemkin/internal/gateway"
	"potemkin/internal/metrics"
)

// Timeline is the reconstructed life of one honeyfarm address.
type Timeline struct {
	Addr       string
	BoundAt    float64 // -1 when the event is missing
	ActiveAt   float64
	DetectedAt float64
	RecycledAt float64
	// Reboots counts how many times the address was re-bound.
	Reboots int
	// ReflectedFrom is the peer recorded on a reflected binding.
	ReflectedFrom string
	Reflected     bool
	SpawnFailed   bool
}

// Lifetime returns the bound→recycled span, or -1 if unknown.
func (tl *Timeline) Lifetime() float64 {
	if tl.BoundAt < 0 || tl.RecycledAt < 0 {
		return -1
	}
	return tl.RecycledAt - tl.BoundAt
}

// ChainEdge is one reflected attack: the VM at From contacted the
// external address Ext, which the gateway impersonated at To.
type ChainEdge struct {
	T    float64
	From string // attacking honeyfarm VM
	Ext  string // external destination the malware intended
	To   string // honeyfarm address that played Ext
}

// Report is the reconstructed incident.
type Report struct {
	Events      int
	Bindings    int // bound events
	Recycled    int
	SpawnFails  int
	Detections  int
	Reflections int
	DNSLookups  int

	Timelines map[string]*Timeline
	Edges     []ChainEdge

	// ChainDepth maps each address to its depth in the reflection
	// forest (1 = attacked directly from outside or never attacked).
	ChainDepth map[string]int
	// MaxChainDepth is the deepest captured chain.
	MaxChainDepth int
}

// Analyze parses a JSONL event stream and reconstructs the incident.
func Analyze(r io.Reader) (*Report, error) {
	rep := &Report{
		Timelines:  make(map[string]*Timeline),
		ChainDepth: make(map[string]int),
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var ev gateway.Event
		if err := json.Unmarshal([]byte(text), &ev); err != nil {
			return nil, fmt.Errorf("analysis: line %d: %w", line, err)
		}
		rep.Events++
		rep.apply(ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	rep.buildChains()
	return rep, nil
}

func (rep *Report) timeline(addr string) *Timeline {
	tl, ok := rep.Timelines[addr]
	if !ok {
		tl = &Timeline{Addr: addr, BoundAt: -1, ActiveAt: -1, DetectedAt: -1, RecycledAt: -1}
		rep.Timelines[addr] = tl
	}
	return tl
}

func (rep *Report) apply(ev gateway.Event) {
	switch ev.Kind {
	case gateway.EvBound:
		rep.Bindings++
		tl := rep.timeline(ev.Addr)
		if tl.BoundAt >= 0 {
			tl.Reboots++
			// Re-binding starts a fresh life; keep the most recent.
			*tl = Timeline{Addr: ev.Addr, BoundAt: ev.T, ActiveAt: -1,
				DetectedAt: -1, RecycledAt: -1, Reboots: tl.Reboots}
		} else {
			tl.BoundAt = ev.T
		}
		if ev.Detail == "reflected" {
			tl.Reflected = true
			tl.ReflectedFrom = ev.Peer
		}
	case gateway.EvActive:
		rep.timeline(ev.Addr).ActiveAt = ev.T
	case gateway.EvDetected:
		rep.Detections++
		rep.timeline(ev.Addr).DetectedAt = ev.T
	case gateway.EvRecycled:
		rep.Recycled++
		rep.timeline(ev.Addr).RecycledAt = ev.T
	case gateway.EvSpawnFail:
		rep.SpawnFails++
		rep.timeline(ev.Addr).SpawnFailed = true
	case gateway.EvReflected:
		rep.Reflections++
		to := strings.TrimPrefix(ev.Detail, "to ")
		rep.Edges = append(rep.Edges, ChainEdge{T: ev.T, From: ev.Addr, Ext: ev.Peer, To: to})
	case gateway.EvDNSProxied:
		rep.DNSLookups++
	}
}

// buildChains computes reflection-forest depths: depth(child) =
// depth(parent) + 1, where an edge parent→child exists when parent's
// reflected traffic landed on child. Addresses that are never a
// reflection target have depth 1.
func (rep *Report) buildChains() {
	parents := make(map[string]string) // child addr -> attacking addr
	for _, e := range rep.Edges {
		if _, taken := parents[e.To]; !taken {
			parents[e.To] = e.From
		}
	}
	var depthOf func(addr string, hops int) int
	depthOf = func(addr string, hops int) int {
		if hops > 512 {
			return hops // cycle guard; reflections can be mutual
		}
		p, ok := parents[addr]
		if !ok || p == addr {
			return 1
		}
		return depthOf(p, hops+1) + 1
	}
	for addr := range rep.Timelines {
		d := depthOf(addr, 0)
		rep.ChainDepth[addr] = d
		if d > rep.MaxChainDepth {
			rep.MaxChainDepth = d
		}
	}
}

// MeanLifetime returns the average bound→recycled span across
// completed bindings, or -1 when none completed.
func (rep *Report) MeanLifetime() float64 {
	sum, n := 0.0, 0
	for _, tl := range rep.Timelines {
		if lt := tl.Lifetime(); lt >= 0 {
			sum += lt
			n++
		}
	}
	if n == 0 {
		return -1
	}
	return sum / float64(n)
}

// Render writes a human-readable incident report.
func (rep *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "incident report (%d events)\n", rep.Events)
	fmt.Fprintf(w, "  bindings     %d (%d recycled, %d spawn failures)\n",
		rep.Bindings, rep.Recycled, rep.SpawnFails)
	fmt.Fprintf(w, "  detections   %d\n", rep.Detections)
	fmt.Fprintf(w, "  reflections  %d (max chain depth %d)\n", rep.Reflections, rep.MaxChainDepth)
	fmt.Fprintf(w, "  dns lookups  %d\n", rep.DNSLookups)
	if lt := rep.MeanLifetime(); lt >= 0 {
		fmt.Fprintf(w, "  mean binding lifetime %.1fs\n", lt)
	}

	// Detected VMs, in detection order.
	var detected []*Timeline
	for _, tl := range rep.Timelines {
		if tl.DetectedAt >= 0 {
			detected = append(detected, tl)
		}
	}
	sort.Slice(detected, func(i, j int) bool { return detected[i].DetectedAt < detected[j].DetectedAt })
	if len(detected) > 0 {
		fmt.Fprintf(w, "\ncompromised VMs:\n")
		for _, tl := range detected {
			line := fmt.Sprintf("  t=%-8.3f %s depth=%d", tl.DetectedAt, tl.Addr, rep.ChainDepth[tl.Addr])
			if tl.Reflected {
				line += " (reflected from " + tl.ReflectedFrom + ")"
			}
			fmt.Fprintln(w, line)
		}
	}
}

// TimelinesTable renders every address's reconstructed timeline as a
// metrics table (for CSV export and spreadsheet triage), sorted by
// bind time.
func (rep *Report) TimelinesTable() *metrics.Table {
	tab := metrics.NewTable("binding timelines",
		"addr", "bound_s", "active_s", "detected_s", "recycled_s",
		"lifetime_s", "chain_depth", "reflected", "reboots")
	var rows []*Timeline
	for _, tl := range rep.Timelines {
		rows = append(rows, tl)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].BoundAt != rows[j].BoundAt {
			return rows[i].BoundAt < rows[j].BoundAt
		}
		return rows[i].Addr < rows[j].Addr
	})
	cell := func(v float64) any {
		if v < 0 {
			return ""
		}
		return v
	}
	for _, tl := range rows {
		tab.AddRow(tl.Addr, cell(tl.BoundAt), cell(tl.ActiveAt), cell(tl.DetectedAt),
			cell(tl.RecycledAt), cell(tl.Lifetime()), rep.ChainDepth[tl.Addr],
			fmt.Sprint(tl.Reflected), tl.Reboots)
	}
	return tab
}

// DumpChains writes the reflection edges in time order (forensic view
// of how the infection moved).
func (rep *Report) DumpChains(w io.Writer) {
	edges := append([]ChainEdge(nil), rep.Edges...)
	sort.Slice(edges, func(i, j int) bool { return edges[i].T < edges[j].T })
	for _, e := range edges {
		fmt.Fprintf(w, "t=%-8.3f %s -> %s (impersonated by %s)\n", e.T, e.From, e.Ext, e.To)
	}
}
