package main

import (
	"fmt"
	"math"
	"sort"
)

// Metric kinds. An end-to-end metric is what a user of the farm sees
// and comes from the untraced run; a per-layer metric explains it and
// comes from the ledger (-trace 1) run.
const (
	kindE2E   = "end_to_end"
	kindLayer = "per_layer"
)

// metricDef declares one metric the benchmark may emit. The table
// below is the single source of truth: BENCHMARK.json lists exactly
// these names (bench_test.go checks), -compare reads the bounds from
// here, and the README tables are written from it.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Kind   string
	// Bound is the share of the baseline median by which the metric may
	// worsen before -compare calls it a regression. Zero means ungated.
	Bound float64
	// Exact marks a simulated statistic or count that repeats
	// bit-for-bit at one seed: -compare demands equality. See exactOn.
	Exact bool
	// On lists the workloads the metric is measured on; empty means
	// all. Elsewhere a per-layer metric reads 0 with n=0 (the contract
	// wants every name on every workload).
	On []string
}

const (
	wWarm     = "wire-warm"
	wSynflood = "wire-synflood"
	wCold     = "wire-cold-overload"
	wReplay   = "replay-radiation"
	wScenario = "scenario-outbreak"
)

var (
	wireAll = []string{wWarm, wSynflood, wCold}
	armed   = []string{wReplay, wScenario}
)

var metricDefs = []metricDef{
	// End to end. Every one is emitted on every workload and is never 0.
	{Name: "setup_s", Unit: "s", Better: "lower", Kind: kindE2E, Bound: 0.25},
	{Name: "pps", Unit: "pkt/s", Better: "higher", Kind: kindE2E, Bound: 0.25},
	{Name: "alloc_kib_per_pkt", Unit: "KiB", Better: "lower", Kind: kindE2E, Bound: 0.10},
	{Name: "live_heap_mib", Unit: "MiB", Better: "lower", Kind: kindE2E, Bound: 0.10},
	{Name: "sim_mib_per_vm", Unit: "sim-MiB", Better: "lower", Kind: kindE2E, Bound: 0.10, Exact: true},

	// Engine arms and simulated statistics: end-to-end in meaning, but
	// measured on some workloads only, or constant, so the contract files
	// them under per_layer (README, "Demoted metrics"). -compare still
	// gates them.
	{Name: "pps_par", Unit: "pkt/s", Better: "higher", Kind: kindLayer, Bound: 0.25, On: armed},
	{Name: "pps_cluster", Unit: "pkt/s", Better: "higher", Kind: kindLayer, Bound: 0.25, On: []string{wReplay}},
	{Name: "loss_frac", Unit: "ratio", Better: "lower", Kind: kindLayer, On: wireAll},
	{Name: "sim_s_per_wall_s", Unit: "sim-s/s", Better: "higher", Kind: kindLayer},
	{Name: "sim_clone_ms_p50", Unit: "sim-ms", Better: "lower", Kind: kindLayer, Exact: true},
	{Name: "sim_ttd_ms", Unit: "sim-ms", Better: "lower", Kind: kindLayer, Exact: true, On: []string{wScenario}},
	{Name: "sim_leak_pct", Unit: "%", Better: "lower", Kind: kindLayer, Exact: true, On: []string{wScenario}},

	// ingest
	{Name: "ingest.listen_drain_pps", Unit: "pkt/s", Better: "higher", Kind: kindLayer, On: wireAll},
	{Name: "ingest.source_read_ns_per_pkt", Unit: "ns", Better: "lower", Kind: kindLayer, On: wireAll},
	{Name: "ingest.feed_wait_frac", Unit: "ratio", Better: "lower", Kind: kindLayer, On: wireAll},
	{Name: "ingest.queue_hwm", Unit: "count", Better: "lower", Kind: kindLayer, On: wireAll},
	{Name: "ingest.queue_drops", Unit: "count", Better: "lower", Kind: kindLayer, On: wireAll},
	{Name: "ingest.seq_gaps", Unit: "count", Better: "lower", Kind: kindLayer, On: wireAll},
	{Name: "ingest.frame_errors", Unit: "count", Better: "lower", Kind: kindLayer, On: wireAll},
	{Name: "ingest.clamped", Unit: "count", Better: "lower", Kind: kindLayer, On: wireAll},
	{Name: "ingest.conservation_gap", Unit: "count", Better: "lower", Kind: kindLayer, On: wireAll},
	{Name: "ingest.sender_ns_per_pkt", Unit: "ns", Better: "lower", Kind: kindLayer, On: wireAll},

	// gre / netsim / telescope
	{Name: "gre.decap_ns_per_pkt", Unit: "ns", Better: "lower", Kind: kindLayer},
	{Name: "netsim.unmarshal_ns_per_pkt", Unit: "ns", Better: "lower", Kind: kindLayer},
	{Name: "netsim.marshal_ns_per_pkt", Unit: "ns", Better: "lower", Kind: kindLayer},
	{Name: "telescope.record_of_ns_per_pkt", Unit: "ns", Better: "lower", Kind: kindLayer},
	{Name: "telescope.generate_s", Unit: "s", Better: "lower", Kind: kindLayer, On: []string{wReplay}},

	// sim
	{Name: "sim.events_per_pkt", Unit: "count", Better: "lower", Kind: kindLayer, Exact: true},
	{Name: "sim.event_ns", Unit: "ns", Better: "lower", Kind: kindLayer},
	{Name: "sim.kernel_residual_ns_per_pkt", Unit: "ns", Better: "lower", Kind: kindLayer},
	{Name: "sim.barrier_ns_per_epoch", Unit: "ns", Better: "lower", Kind: kindLayer},
	{Name: "sim.epochs_per_sim_s", Unit: "1/sim-s", Better: "lower", Kind: kindLayer, Exact: true, On: armed},

	// gateway
	{Name: "gateway.inbound_self_ns_per_pkt", Unit: "ns", Better: "lower", Kind: kindLayer},
	{Name: "gateway.outbound_self_ns_per_pkt", Unit: "ns", Better: "lower", Kind: kindLayer},
	{Name: "gateway.reflected_per_pkt", Unit: "count", Better: "lower", Kind: kindLayer, Exact: true},
	{Name: "gateway.warm_frac", Unit: "ratio", Better: "higher", Kind: kindLayer, Exact: true},

	// farm / vmm / mem
	{Name: "farm.request_vm_self_ns_per_spawn", Unit: "ns", Better: "lower", Kind: kindLayer},
	{Name: "farm.spawn_failures", Unit: "count", Better: "lower", Kind: kindLayer, Exact: true},
	{Name: "farm.spawn_retries", Unit: "count", Better: "lower", Kind: kindLayer, Exact: true},
	{Name: "vmm.flash_clone_ns", Unit: "ns", Better: "lower", Kind: kindLayer},
	{Name: "vmm.clones_per_pkt", Unit: "count", Better: "lower", Kind: kindLayer, Exact: true},
	{Name: "mem.cow_write_ns", Unit: "ns", Better: "lower", Kind: kindLayer},
	{Name: "mem.cow_copies_per_vm", Unit: "count", Better: "lower", Kind: kindLayer, Exact: true},
	{Name: "mem.dedup_hit_frac", Unit: "ratio", Better: "higher", Kind: kindLayer, Exact: true},

	// guest
	{Name: "guest.deliver_self_ns_per_pkt", Unit: "ns", Better: "lower", Kind: kindLayer},
	{Name: "guest.syn_known_ns", Unit: "ns", Better: "lower", Kind: kindLayer},
	{Name: "guest.syn_new_ns", Unit: "ns", Better: "lower", Kind: kindLayer},
	{Name: "guest.syn_evict_ns", Unit: "ns", Better: "lower", Kind: kindLayer},
	{Name: "guest.start_ns_per_vm", Unit: "ns", Better: "lower", Kind: kindLayer},

	// core / cluster
	{Name: "core.par_speedup", Unit: "ratio", Better: "higher", Kind: kindLayer, On: armed},
	{Name: "core.shard1_vs_classic", Unit: "ratio", Better: "higher", Kind: kindLayer, On: []string{wReplay}},
	{Name: "cluster.vs_oracle", Unit: "ratio", Better: "higher", Kind: kindLayer, On: []string{wReplay}},
	{Name: "cluster.epoch_rtt_us", Unit: "us", Better: "lower", Kind: kindLayer},
	{Name: "cluster.epochs", Unit: "count", Better: "lower", Kind: kindLayer, Exact: true, On: []string{wReplay}},

	// sinks
	{Name: "metrics.on_overhead_frac", Unit: "ratio", Better: "lower", Kind: kindLayer, On: []string{wReplay}},
	{Name: "trace.on_overhead_frac", Unit: "ratio", Better: "lower", Kind: kindLayer, On: []string{wReplay}},
	{Name: "eventlog.on_overhead_frac", Unit: "ratio", Better: "lower", Kind: kindLayer, On: []string{wReplay}},

	// process and ledger
	{Name: "proc.cpu_us_per_pkt", Unit: "us", Better: "lower", Kind: kindLayer},
	{Name: "proc.allocs_per_pkt", Unit: "count", Better: "lower", Kind: kindLayer},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower", Kind: kindLayer},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower", Kind: kindLayer},
	{Name: "proc.peak_rss_mib", Unit: "MiB", Better: "lower", Kind: kindLayer},
	{Name: "gen.late_p99_us", Unit: "us", Better: "lower", Kind: kindLayer, On: []string{wCold}},
	{Name: "gen.sent_frac", Unit: "ratio", Better: "higher", Kind: kindLayer, On: []string{wCold}},
	{Name: "scenario.compile_s", Unit: "s", Better: "lower", Kind: kindLayer, On: []string{wScenario}},
	{Name: "ledger.attributed_frac", Unit: "ratio", Better: "higher", Kind: kindLayer},
	{Name: "ledger.unattributed_ns_per_pkt", Unit: "ns", Better: "lower", Kind: kindLayer},
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower", Kind: kindLayer},
}

// defIndex is name's position in metricDefs, len(metricDefs) if absent.
func defIndex(name string) int {
	for i := range metricDefs {
		if metricDefs[i].Name == name {
			return i
		}
	}
	return len(metricDefs)
}

func defOf(name string) *metricDef {
	if i := defIndex(name); i < len(metricDefs) {
		return &metricDefs[i]
	}
	return nil
}

// exactOn reports whether the metric repeats exactly on workload. What
// wire-cold-overload drops depends on wall time, so nothing it simulates
// does.
func (d *metricDef) exactOn(workload string) bool { return d.Exact && workload != wCold }

func (d *metricDef) on(workload string) bool {
	if len(d.On) == 0 {
		return true
	}
	for _, w := range d.On {
		if w == workload {
			return true
		}
	}
	return false
}

// Metric is one reported number: the median over N samples with its
// quartiles and minimum (all equal when N is 1).
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Kind   string  `json:"kind"`
	Value  float64 `json:"value"`
	P25    float64 `json:"p25"`
	P75    float64 `json:"p75"`
	Min    float64 `json:"min"`
	N      int     `json:"n"`
	Bound  float64 `json:"bound,omitempty"`
	Exact  bool    `json:"exact,omitempty"`
}

// quantile interpolates linearly between order statistics of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// summarize folds a workload's samples of d into a Metric.
func summarize(d *metricDef, workload string, vals []float64) (Metric, error) {
	m := Metric{Name: d.Name, Unit: d.Unit, Better: d.Better, Kind: d.Kind, Bound: d.Bound, Exact: d.exactOn(workload), N: len(vals)}
	if len(vals) == 0 {
		return m, nil
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	for _, v := range s {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return m, fmt.Errorf("metric %q has a non-finite sample", d.Name)
		}
	}
	m.Value, m.P25, m.P75, m.Min = quantile(s, 0.5), quantile(s, 0.25), quantile(s, 0.75), s[0]
	return m, nil
}
