package potemkin

import (
	"encoding/json"
	"time"

	"potemkin/internal/core"
	"potemkin/internal/metrics"
	"potemkin/internal/sim"
)

// Snapshot is the honeyfarm at one epoch barrier as one JSON object:
// live gauges, cumulative counters and latency summaries. potemkind
// serves and writes it in every mode; inspect snapshot renders it.
type Snapshot struct {
	TSeconds float64 `json:"t_seconds"` // simulated time

	// Live gauges.
	LiveVMs       int `json:"live_vms"`
	BindingsLive  int `json:"bindings_live"`
	PendingQueued int `json:"pending_queued"` // packets waiting on in-flight clones
	OpenSpans     int `json:"open_spans,omitempty"`

	// Cumulative counters.
	PeakVMs          int    `json:"peak_vms"` // sum of per-shard peaks: above one shard, an upper bound on the farm-wide peak
	InfectedVMs      int    `json:"infected_vms"`
	BindingsCreated  uint64 `json:"bindings_created"`
	BindingsRecycled uint64 `json:"bindings_recycled"`
	InboundPackets   uint64 `json:"inbound_packets"`
	DeliveredToVM    uint64 `json:"delivered_to_vm"`
	SpawnFailures    uint64 `json:"spawn_failures"`
	SpawnRetries     uint64 `json:"spawn_retries"`
	BindingsShed     uint64 `json:"bindings_shed"`
	DetectedInfected uint64 `json:"detected_infected"`
	MemoryInUseBytes uint64 `json:"memory_in_use_bytes"`

	// CloneMs summarizes flash-clone latency across all servers.
	CloneMs LatencySummary `json:"clone_ms"`

	// StagesMs summarizes the tracers' per-stage latencies (binding,
	// spawn, place, clone, active, pending-wait, …) when tracing is on;
	// encoding/json sorts its keys, so the bytes are deterministic.
	StagesMs map[string]LatencySummary `json:"stages_ms,omitempty"`

	// Ingest carries wire-listener loss accounting, present only when
	// live wire ingest is attached (Options.Wire via StartWire).
	Ingest *IngestSummary `json:"ingest,omitempty"`
}

// IngestSummary is the wire-ingest side of a snapshot: what the
// GRE-over-UDP listener saw, lost, and handed to the simulation.
type IngestSummary struct {
	Received    uint64 `json:"received"`
	Bytes       uint64 `json:"bytes"`
	FrameErrors uint64 `json:"frame_errors"`
	Dropped     uint64 `json:"dropped"`
	SeqGaps     uint64 `json:"seq_gaps"`
	Enqueued    uint64 `json:"enqueued"`
	Delivered   uint64 `json:"delivered"`
	Clamped     uint64 `json:"clamped"`
	QueueDepth  int    `json:"queue_depth"`
	QueueHWM    int    `json:"queue_hwm"`
}

// LatencySummary condenses a histogram for JSON export. All latency
// fields are milliseconds.
type LatencySummary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// summarize condenses h; an empty or nil histogram yields the zero
// summary.
func summarize(h *metrics.Histogram) LatencySummary {
	if h == nil || h.Count() == 0 {
		return LatencySummary{}
	}
	return LatencySummary{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
	}
}

// Snapshot captures the current state.
func (hf *Honeyfarm) Snapshot() Snapshot {
	s := SnapshotOf(hf.Totals())
	// The wire server's counters are atomic, so this is safe mid-serve.
	if w := hf.wire; w != nil {
		st := w.Stats()
		s.Ingest = &st.Ingest
	}
	return s
}

// SnapshotOf shapes summed counters and histograms as a Snapshot,
// without Ingest, as StatsOf shapes Stats.
func SnapshotOf(now time.Duration, t core.Totals) Snapshot {
	gs, fs := &t.Gateway, &t.Farm
	var clone metrics.Histogram
	for _, h := range t.Clone {
		clone.Merge(h)
	}
	s := Snapshot{
		TSeconds:         sim.Time(now).Seconds(),
		LiveVMs:          t.LiveVMs,
		BindingsLive:     gs.BindingsLive,
		PendingQueued:    gs.PendingQueued,
		OpenSpans:        t.OpenSpans,
		PeakVMs:          fs.PeakLiveVMs,
		InfectedVMs:      t.InfectedVMs,
		BindingsCreated:  gs.BindingsCreated,
		BindingsRecycled: gs.BindingsRecycled,
		InboundPackets:   gs.InboundPackets,
		DeliveredToVM:    gs.DeliveredToVM,
		SpawnFailures:    gs.SpawnFailures + fs.SpawnFailures,
		SpawnRetries:     gs.SpawnRetries + fs.SpawnRetries,
		BindingsShed:     gs.BindingsShed,
		DetectedInfected: gs.DetectedInfected,
		MemoryInUseBytes: t.Memory,
		CloneMs:          summarize(&clone),
	}
	stages := map[string]*metrics.Histogram{}
	for _, tracer := range t.Stages {
		for name, h := range tracer {
			if stages[name] == nil {
				stages[name] = &metrics.Histogram{}
			}
			stages[name].Merge(h)
		}
	}
	if len(stages) > 0 {
		s.StagesMs = make(map[string]LatencySummary, len(stages))
		for name, h := range stages {
			s.StagesMs[name] = summarize(h)
		}
	}
	return s
}

// MarshalSnapshot renders the snapshot as indented JSON — the exact
// bytes potemkind's debug endpoint serves and inspect snapshot
// reads.
func (hf *Honeyfarm) MarshalSnapshot() ([]byte, error) {
	return json.MarshalIndent(hf.Snapshot(), "", "  ")
}
