package cluster

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"potemkin/internal/core"
	"potemkin/internal/guest"
	"potemkin/internal/metrics"
	"potemkin/internal/sim"
	"potemkin/internal/telescope"
	"potemkin/internal/vmm"
)

// filterSim drops the epoch_* profiler series so snapshots can be
// compared across execution modes: their timings are wall-clock, and a
// cluster's are the coordinator's, not the workers' (its counters are
// checked by TestClusterEpochProfileMatchesEngine).
func filterSim(pts []metrics.Point) []metrics.Point {
	var out []metrics.Point
	for _, p := range pts {
		if strings.HasPrefix(p.Name, "epoch") {
			continue
		}
		out = append(out, p)
	}
	return out
}

// TestClusterMetricsAggregation is the farm-wide telemetry acceptance
// test: with a registry on the coordinator, which publishes the
// workers' totals into it, the registry after Results equals what a
// single sequential registry would have recorded for the same seed, and
// /metrics renders it.
func TestClusterMetricsAggregation(t *testing.T) {
	const seed = 23

	// Oracle: the same scenario in one process, one registry.
	oracleReg := metrics.NewRegistry()
	ocfg := testEngineConfig(seed, nil)
	ocfg.Parallel = false
	ocfg.Metrics = oracleReg
	oeng, err := core.NewShardEngine(ocfg)
	if err != nil {
		t.Fatalf("NewShardEngine: %v", err)
	}
	for _, pkt := range exploitPackets(ocfg.Farm.Profile) {
		oeng.InjectBarrier(pkt)
	}
	if _, err := oeng.Replay(&telescope.SliceSource{Recs: testRecords(t, seed)}, nil, time.Millisecond); err != nil {
		t.Fatalf("oracle replay: %v", err)
	}
	oeng.RunFor(time.Second)
	oraclePts := filterSim(oracleReg.Snapshot())
	oracleGw := oeng.GatewayStats()
	oeng.Close()
	if len(oraclePts) == 0 {
		t.Fatal("oracle registry empty; scenario records no metrics")
	}

	// Cluster: two workers, coordinator registry + epoch timeline.
	var timeline bytes.Buffer
	clusterReg := metrics.NewRegistry()
	h := startCluster(t, seed, nil, 2, 0, func(cfg *Config) {
		cfg.Engine.Metrics = clusterReg
		cfg.Engine.EpochLog = &timeline
	})
	got, err := h.drive(t, seed, time.Second)
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}

	// The coordinator's registry must equal the oracle registry exactly:
	// counters, gauges, and histogram buckets are all integer
	// accumulations over the same simulated run.
	clusterPts := filterSim(clusterReg.Snapshot())
	a, _ := json.Marshal(oraclePts)
	b, _ := json.Marshal(clusterPts)
	if !bytes.Equal(a, b) {
		t.Errorf("cluster metrics diverge from sequential oracle:\noracle:  %s\ncluster: %s", a, b)
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
	for _, p := range clusterReg.Snapshot() {
		if p.Name == "gateway_inbound_packets_total" {
			inbound = p.Value
		}
	}
	if uint64(inbound) != got.totals.Gateway.InboundPackets || got.totals.Gateway.InboundPackets != oracleGw.InboundPackets {
		t.Errorf("inbound: metrics=%d cluster-stats=%d oracle=%d",
			inbound, got.totals.Gateway.InboundPackets, oracleGw.InboundPackets)
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

	// The coordinator's epoch timeline profiled the worker barrier:
	// per-epoch samples with one advance/wait entry per worker.
	samples, err := metrics.ReadEpochs(&timeline)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(samples)) != health.Epoch {
		t.Errorf("timeline has %d epochs, health says %d", len(samples), health.Epoch)
	}
	if len(samples) == 0 {
		t.Fatal("empty coordinator epoch timeline")
	}
	s := samples[0]
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
	const seed = 23
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

	cfg := testEngineConfig(seed, nil)
	engReg := metrics.NewRegistry()
	cfg.Metrics = engReg
	eng, err := core.NewShardEngine(cfg)
	if err != nil {
		t.Fatalf("NewShardEngine: %v", err)
	}
	for _, pkt := range exploitPackets(cfg.Farm.Profile) {
		eng.InjectBarrier(pkt)
	}
	if _, err := eng.Replay(&telescope.SliceSource{Recs: testRecords(t, seed)}, nil, time.Millisecond); err != nil {
		t.Fatalf("engine replay: %v", err)
	}
	eng.RunFor(time.Second)
	eng.Close()
	want := counters(engReg)

	clusterReg := metrics.NewRegistry()
	h := startCluster(t, seed, nil, 2, 0, func(cfg *Config) { cfg.Engine.Metrics = clusterReg })
	if _, err := h.drive(t, seed, time.Second); err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	h.shutdown(t)
	got := counters(clusterReg)

	if len(want) != 3 || want["epoch_exchange_msgs_total"] == 0 || want["epoch_ingress_frames_total"] == 0 {
		t.Fatalf("vacuous engine profile: %v", want)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("epoch profile differs:\nengine  %v\ncluster %v", want, got)
	}
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
	const seed = 31

	ocfg := testEngineConfig(seed, nil)
	ocfg.Parallel = false
	oeng, err := core.NewShardEngine(ocfg)
	if err != nil {
		t.Fatalf("NewShardEngine: %v", err)
	}
	for _, pkt := range exploitPackets(ocfg.Farm.Profile) {
		oeng.InjectBarrier(pkt)
	}
	if _, err := oeng.Replay(&telescope.SliceSource{Recs: testRecords(t, seed)}, nil, time.Millisecond); err != nil {
		t.Fatalf("oracle replay: %v", err)
	}
	oeng.RunFor(time.Second)
	var hosts vmm.HostStats
	var guests guest.Stats
	srcs := map[string][]*metrics.Histogram{}
	for _, d := range oeng.Domains() {
		h := d.F.HostStats()
		g, _ := d.F.GuestCumulative()
		hosts.Add(&h)
		guests.Add(&g)
		for _, h := range d.F.Hosts() {
			srcs["vmm_clone_ms"] = append(srcs["vmm_clone_ms"], &h.CloneLatency)
		}
		srcs["gateway_detect_time_ms"] = append(srcs["gateway_detect_time_ms"], d.G.DetectTime())
		srcs["guest_deception_actions"] = append(srcs["guest_deception_actions"], d.F.Deception())
	}
	oeng.Close()

	reg := metrics.NewRegistry()
	h := startCluster(t, seed, nil, 2, 0, func(cfg *Config) { cfg.Engine.Metrics = reg })
	if _, err := h.drive(t, seed, time.Second); err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	res, err := h.c.Results()
	if err != nil {
		t.Fatalf("Results: %v", err)
	}
	h.shutdown(t)

	if res.Gateway.InboundPackets == 0 || hosts.CowFaults == 0 || guests.PacketsIn == 0 {
		t.Fatalf("vacuous run: gateway %+v, hosts %+v, guests %+v", res.Gateway, hosts, guests)
	}
	want := metrics.NewRegistry()
	for _, st := range []any{&res.Gateway, &res.Farm, &hosts, &guests} {
		metrics.NewExporter(want, st).Publish(st)
	}
	got := make(map[string]metrics.Point)
	for _, p := range reg.Snapshot() {
		got[p.Name] = p
	}
	for _, w := range want.Snapshot() {
		if p, ok := got[w.Name]; !ok || p.Kind != w.Kind || p.Value != w.Value {
			t.Errorf("the Stats structs hold %s %s = %d, the coordinator's registry has %+v", w.Kind, w.Name, w.Value, p)
		}
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
	const seed = 23
	const every = time.Second // core's publication period
	type reading struct {
		now sim.Time
		reg string
	}
	read := func(reg *metrics.Registry, readings *[]reading) func(sim.Time, core.Totals) {
		return func(now sim.Time, _ core.Totals) {
			b, err := json.Marshal(filterSim(reg.Snapshot()))
			if err != nil {
				t.Fatal(err)
			}
			*readings = append(*readings, reading{now, string(b)})
		}
	}
	recs := testRecords(t, seed)

	var want []reading
	cfg := testEngineConfig(seed, nil)
	cfg.Parallel = false
	engReg := metrics.NewRegistry()
	cfg.Metrics = engReg
	eng, err := core.NewShardEngine(cfg)
	if err != nil {
		t.Fatalf("NewShardEngine: %v", err)
	}
	for _, pkt := range exploitPackets(cfg.Farm.Profile) {
		eng.InjectBarrier(pkt)
	}
	eng.SetProgress(every, read(engReg, &want))
	if _, err := eng.Replay(&telescope.SliceSource{Recs: recs}, nil, time.Millisecond); err != nil {
		t.Fatalf("engine replay: %v", err)
	}
	eng.RunFor(3 * time.Second)
	eng.Close()

	var got []reading
	clusterReg := metrics.NewRegistry()
	h := startCluster(t, seed, nil, 2, 0, func(cfg *Config) { cfg.Engine.Metrics = clusterReg })
	defer h.shutdown(t)
	for _, pkt := range exploitPackets(cfg.Farm.Profile) {
		h.c.Inject(pkt)
	}
	h.c.SetProgress(every, read(clusterReg, &got))
	if _, err := h.c.Replay(&telescope.SliceSource{Recs: recs}, nil, time.Millisecond); err != nil {
		t.Fatalf("cluster replay: %v", err)
	}
	h.c.RunFor(3 * time.Second)
	if _, err := h.c.Results(); err != nil {
		t.Fatalf("Results: %v", err)
	}

	if len(want) < 3 || want[0].reg == want[len(want)-1].reg {
		t.Fatalf("vacuous: the engine's registry read the same at its %d barriers", len(want))
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("registries differ at the progress barriers:\nengine  %v\ncluster %v", want, got)
	}
}

// TestClusterMetricsOffByDefault: without a coordinator registry the
// scrape endpoints degrade gracefully.
func TestClusterMetricsOffByDefault(t *testing.T) {
	const seed = 29
	h := startCluster(t, seed, nil, 2, 0, nil)
	got, err := h.drive(t, seed, 500*time.Millisecond)
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	if _, err := h.c.Results(); err != nil {
		t.Fatalf("Results: %v", err)
	}
	if text := h.c.MetricsText(); len(text) != 0 {
		t.Errorf("MetricsText without registry: %q", text)
	}
	// Health still works — it reads connection state, not the registry.
	if health := h.c.Health(); len(health.Workers) != 2 {
		t.Errorf("health workers = %d", len(health.Workers))
	}
	_ = got
	h.shutdown(t)
}

// TestClusterHealthSlotsPublishedOnChange: the /cluster mirror publishes
// the worker-slot list where the assignment changes, not at every
// epoch. A run without a recovery leaves the published list as
// WaitReady's assignments left it, while the epoch progress moves, and
// the per-epoch progress publish allocates nothing.
func TestClusterHealthSlotsPublishedOnChange(t *testing.T) {
	const seed = 29
	h := startCluster(t, seed, nil, 2, 0, nil)
	slots, seq := h.c.pubWorkers.Load(), h.c.pubSeq.Load()
	if slots == nil {
		t.Fatal("no slot list published once the workers were assigned")
	}
	if _, err := h.drive(t, seed, 500*time.Millisecond); err != nil {
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
