package cluster

import (
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"potemkin/internal/metrics"
)

// TestClusterMetricsAggregation is the farm-wide telemetry acceptance
// test: with a registry on the coordinator, which publishes the
// workers' totals into it, the registry after Results equals what a
// single sequential registry would have recorded for the same seed, and
// /metrics renders it.
func TestClusterMetricsAggregation(t *testing.T) {
	sp := standard(t, 23)
	sp.runFor = time.Second
	sp.opts.Metrics = true
	sp.opts.EpochLog = io.Discard
	oracle := runModes(t, sp, "seq")[0]
	if len(oracle.art["registry"]) <= 2 {
		t.Fatal("oracle registry empty; scenario records no metrics")
	}

	// Cluster: two workers, coordinator registry + epoch timeline.
	h := startCluster(t, sp, "cluster")
	h.connect(t, 2)
	got, err := h.drive(t)
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}

	// The live scrape after the run reflects the final totals.
	text := string(h.c.MetricsText())
	for _, want := range []string{
		"# TYPE gateway_inbound_packets_total counter",
		"# TYPE farm_live_vms gauge",
		"# TYPE epoch_barrier_wait_ms summary",
		"epochs_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("farm-wide exposition missing %q", want)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if n := len(strings.Fields(line)); n != 2 {
			t.Errorf("malformed series line: %q", line)
		}
	}
	// Scraped counter equals the merged gateway stats.
	var inbound int64 = -1
	for _, p := range got.reg.Snapshot() {
		if p.Name == "gateway_inbound_packets_total" {
			inbound = p.Value
		}
	}
	if uint64(inbound) != got.totals.Gateway.InboundPackets || got.totals.Gateway.InboundPackets != oracle.totals.Gateway.InboundPackets {
		t.Errorf("inbound: metrics=%d cluster-stats=%d oracle=%d",
			inbound, got.totals.Gateway.InboundPackets, oracle.totals.Gateway.InboundPackets)
	}

	// Cluster health: both workers live, caught up, no recoveries.
	health := h.c.Health()
	if len(health.Workers) != 2 {
		t.Fatalf("health lists %d workers, want 2", len(health.Workers))
	}
	for _, w := range health.Workers {
		if !w.Live {
			t.Errorf("worker %d (%s) not live: %+v", w.ID, w.Name, w)
		}
		if w.EpochLag < 0 {
			t.Errorf("worker %d negative epoch lag: %+v", w.ID, w)
		}
	}
	if health.Epoch == 0 || health.Shards != 4 || health.Degraded {
		t.Errorf("health: %+v", health)
	}
	var parsed ClusterHealth
	if err := json.Unmarshal(h.c.HealthJSON(), &parsed); err != nil {
		t.Fatalf("HealthJSON: %v", err)
	}
	if parsed.Slots != 2 {
		t.Errorf("parsed health: %+v", parsed)
	}

	h.shutdown(t)
	// The coordinator's registry equals the oracle's exactly — counters,
	// gauges and histogram buckets are integer accumulations over the
	// same simulated run — and so does its epoch timeline, wall times
	// aside.
	requireSame(t, oracle, got)

	// The coordinator's epoch timeline profiled the worker barrier:
	// per-epoch samples with one advance/wait entry per worker.
	if uint64(len(got.samples)) != health.Epoch {
		t.Errorf("timeline has %d epochs, health says %d", len(got.samples), health.Epoch)
	}
	if len(got.samples) == 0 {
		t.Fatal("empty coordinator epoch timeline")
	}
	s := got.samples[0]
	if len(s.AdvanceNS) != 2 || len(s.BarrierWaitNS) != 2 {
		t.Errorf("per-worker arrays not 2-wide: %+v", s)
	}
}

// TestClusterEpochProfileMatchesEngine: the deterministic half of the
// epoch profile — how many epochs ran, how many cross-shard messages
// entered them, how many records were fed into them — reads the same
// from the coordinator's registry as from the in-process parallel
// engine's, because both come from one runner loop.
func TestClusterEpochProfileMatchesEngine(t *testing.T) {
	counters := func(reg *metrics.Registry) map[string]int64 {
		out := map[string]int64{}
		for _, p := range reg.Snapshot() {
			switch p.Name {
			case "epochs_total", "epoch_exchange_msgs_total", "epoch_ingress_frames_total":
				out[p.Name] = p.Value
			}
		}
		return out
	}
	sp := standard(t, 23)
	sp.runFor = time.Second
	sp.opts.Metrics = true
	sp.progress = 0
	runs := runModes(t, sp, "par", "cluster")
	want, got := counters(runs[0].reg), counters(runs[1].reg)
	if len(want) != 3 || want["epoch_exchange_msgs_total"] == 0 || want["epoch_ingress_frames_total"] == 0 {
		t.Fatalf("vacuous engine profile: %v", want)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("epoch profile differs:\nengine  %v\ncluster %v", want, got)
	}
	requireSame(t, runs[0], runs[1])
}

// TestClusterRegistryEqualsStatsAtRest is the cluster twin of the
// facade's test of the same name: the coordinator publishes the
// workers' totals into its registry, so after Results every gateway_*
// and farm_* series equals its field in the merged Results, and the
// vmm_* and guest_* series equal the one-process oracle's host sums and
// cumulative guest totals. Each histogram equals the shard-order merge
// of the oracle's Histograms: its count, min, max and buckets, and a sum
// rounded to micro-units per source.
func TestClusterRegistryEqualsStatsAtRest(t *testing.T) {
	sp := standard(t, 31)
	sp.runFor = time.Second
	oracle := runModes(t, sp, "seq")[0].totals
	sp.opts.Metrics = true
	cl := runModes(t, sp, "cluster")[0]
	res := cl.totals

	if res.Gateway.InboundPackets == 0 || oracle.Host.CowFaults == 0 || oracle.Guest.PacketsIn == 0 {
		t.Fatalf("vacuous run: gateway %+v, hosts %+v, guests %+v", res.Gateway, oracle.Host, oracle.Guest)
	}
	want := metrics.NewRegistry()
	for _, st := range []any{&res.Gateway, &res.Farm, &oracle.Host, &oracle.Guest} {
		metrics.NewExporter(want, st).Publish(st)
	}
	got := make(map[string]metrics.Point)
	for _, p := range cl.reg.Snapshot() {
		got[p.Name] = p
	}
	for _, w := range want.Snapshot() {
		if p, ok := got[w.Name]; !ok || p.Kind != w.Kind || p.Value != w.Value {
			t.Errorf("the Stats structs hold %s %s = %d, the coordinator's registry has %+v", w.Kind, w.Name, w.Value, p)
		}
	}
	srcs := map[string][]*metrics.Histogram{
		"vmm_clone_ms":            oracle.Clone,
		"gateway_detect_time_ms":  oracle.Detect,
		"guest_deception_actions": oracle.Deception,
	}
	for name, hs := range srcs {
		var merged metrics.Histogram
		var sumMicro int64
		for _, h := range hs {
			merged.Merge(h)
			sumMicro += int64(math.Round(h.Sum() * 1e6))
		}
		stored := metrics.NewRegistry()
		stored.Hist(name).Store(hs)
		p, w := got[name], stored.Snapshot()[0]
		if p.Kind != "hist" || p.Count != merged.Count() || p.Min != merged.Min() || p.Max != merged.Max() ||
			p.SumMicro != sumMicro || !reflect.DeepEqual(p.Buckets, w.Buckets) {
			t.Errorf("the oracle's %d sources merge to %s count %d min %v max %v sum_micro %d buckets %v, the coordinator's registry has %+v",
				len(hs), name, merged.Count(), merged.Min(), merged.Max(), sumMicro, w.Buckets, p)
		}
	}
	if got["vmm_clone_ms"].Count == 0 {
		t.Error("vacuous run: no clone latency published")
	}
}

// TestClusterRegistryMatchesEngineMidRun: the coordinator publishes the
// workers' totals into its registry at the barriers the engine's view
// publishes its domains' at, so a progress observer on the registry's
// period reads, epoch_* aside, the same registry from the coordinator as
// from the in-process engine at every barrier it reports at — mid-run,
// not only once the run is at rest.
func TestClusterRegistryMatchesEngineMidRun(t *testing.T) {
	sp := standard(t, 23)
	sp.progress = time.Second // core's publication period
	sp.runFor = 3 * time.Second
	sp.opts.Metrics = true
	runs := runModes(t, sp, "seq", "cluster")
	want := runs[0].ticks
	if len(want) < 3 || want[0].reg == want[len(want)-1].reg {
		t.Fatalf("vacuous: the engine's registry read the same at its %d barriers", len(want))
	}
	requireSame(t, runs[0], runs[1])
}

// TestClusterMetricsOffByDefault: without a coordinator registry the
// scrape endpoints degrade gracefully.
func TestClusterMetricsOffByDefault(t *testing.T) {
	sp := standard(t, 29)
	sp.runFor = 500 * time.Millisecond
	h := startCluster(t, sp, "cluster")
	h.connect(t, 2)
	if _, err := h.drive(t); err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	if text := h.c.MetricsText(); len(text) != 0 {
		t.Errorf("MetricsText without registry: %q", text)
	}
	// Health still works — it reads connection state, not the registry.
	if health := h.c.Health(); len(health.Workers) != 2 {
		t.Errorf("health workers = %d", len(health.Workers))
	}
	h.shutdown(t)
}

// TestClusterHealthSlotsPublishedOnChange: the /cluster mirror publishes
// the worker-slot list where the assignment changes, not at every
// epoch. A run without a recovery leaves the published list as
// WaitReady's assignments left it, while the epoch progress moves, and
// the per-epoch progress publish allocates nothing.
func TestClusterHealthSlotsPublishedOnChange(t *testing.T) {
	sp := standard(t, 29)
	sp.runFor = 500 * time.Millisecond
	h := startCluster(t, sp, "cluster")
	h.connect(t, 2)
	slots, seq := h.c.pubWorkers.Load(), h.c.pubSeq.Load()
	if slots == nil {
		t.Fatal("no slot list published once the workers were assigned")
	}
	if _, err := h.drive(t); err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	if got := h.c.pubWorkers.Load(); got != slots {
		t.Error("a run without a recovery republished the slot list")
	}
	if h.c.pubSeq.Load() == seq {
		t.Error("the run published no epoch progress")
	}
	if n := testing.AllocsPerRun(100, h.c.publishProgress); n != 0 {
		t.Errorf("per-epoch progress publish: %v allocs, want 0", n)
	}
	h.shutdown(t)
}
