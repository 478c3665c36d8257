package potemkin

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"potemkin/internal/core"
	"potemkin/internal/guest"
	"potemkin/internal/ingest"
	"potemkin/internal/metrics"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/vmm"
)

// TestMetricsOffByDefault: without Options.Metrics the farm carries no
// registry, builds no stats view, and its nil histogram handles make
// every observation a no-op — the telemetry-off path.
func TestMetricsOffByDefault(t *testing.T) {
	hf := MustNew(Options{})
	defer hf.Close()
	if hf.metrics != nil {
		t.Error("registry present without Options.Metrics")
	}
	if b := hf.MetricsText(); b != nil {
		t.Errorf("MetricsText = %q, want nil", b)
	}
	hf.InjectProbe("203.0.113.9", "10.5.1.2", 445)
	hf.RunFor(time.Second) // must not panic through the nil view or handles
}

// TestMetricsThroughFacade: with telemetry on, the registry's live
// counters agree with the end-of-run Stats, and the Prometheus text
// exposition carries the key series.
func TestMetricsThroughFacade(t *testing.T) {
	hf := MustNew(Options{Metrics: true, Seed: 3, IdleTimeout: 2 * time.Second})
	defer hf.Close()
	recs, err := hf.GenerateTrace(10*time.Second, 100)
	if err != nil {
		t.Fatal(err)
	}
	hf.Replay(SliceSource(recs))
	hf.RunFor(30 * time.Second)

	st := hf.Stats()
	pts := hf.metrics.Snapshot()
	get := func(name string) int64 {
		for _, p := range pts {
			if p.Name == name {
				return p.Value
			}
		}
		t.Errorf("series %q missing from snapshot", name)
		return -1
	}
	if got := get("gateway_inbound_packets_total"); uint64(got) != st.InboundPackets {
		t.Errorf("gateway_inbound_packets_total = %d, Stats = %d", got, st.InboundPackets)
	}
	if got := get("gateway_bindings_created_total"); uint64(got) != st.BindingsCreated {
		t.Errorf("gateway_bindings_created_total = %d, Stats = %d", got, st.BindingsCreated)
	}
	if got := get("gateway_delivered_to_vm_total"); uint64(got) != st.DeliveredToVM {
		t.Errorf("gateway_delivered_to_vm_total = %d, Stats = %d", got, st.DeliveredToVM)
	}
	if got := get("farm_live_vms"); int(got) != st.LiveVMs {
		t.Errorf("farm_live_vms = %d, Stats = %d", got, st.LiveVMs)
	}
	if got := get("vmm_clones_total"); got == 0 {
		t.Error("vmm_clones_total = 0 after a replay that spawned VMs")
	}

	text := string(hf.MetricsText())
	for _, want := range []string{
		"# TYPE gateway_inbound_packets_total counter",
		"# TYPE farm_live_vms gauge",
		"# TYPE vmm_clone_ms summary",
		"vmm_clone_ms_count",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// seriesValue returns the named counter or gauge point's value, failing
// the test when the series is missing.
func seriesValue(t *testing.T, pts []metrics.Point, name string) int64 {
	t.Helper()
	for _, p := range pts {
		if p.Name == name {
			return p.Value
		}
	}
	t.Errorf("series %q missing from snapshot", name)
	return -1
}

// checkPublished fails t unless got holds, under the same name and kind,
// every point that exporting each of stats (pointers to Stats structs)
// into a fresh registry yields.
func checkPublished(t *testing.T, when string, got []metrics.Point, stats ...any) {
	t.Helper()
	want := metrics.NewRegistry()
	for _, s := range stats {
		metrics.NewExporter(want, s).Publish(s)
	}
	byName := make(map[string]metrics.Point, len(got))
	for _, p := range got {
		byName[p.Name] = p
	}
	for _, w := range want.Snapshot() {
		if p, ok := byName[w.Name]; !ok || p.Kind != w.Kind || p.Value != w.Value {
			t.Errorf("%s: the Stats structs hold %s %s = %d, the registry has %+v", when, w.Kind, w.Name, w.Value, p)
		}
	}
}

// histSources are, in shard order, the Histograms each registry
// histogram of a StatsView is the merge of.
func histSources(domains []*core.ShardDomain) map[string][]*metrics.Histogram {
	srcs := map[string][]*metrics.Histogram{}
	for _, d := range domains {
		for _, h := range d.F.Hosts() {
			srcs["vmm_clone_ms"] = append(srcs["vmm_clone_ms"], &h.CloneLatency)
		}
		srcs["gateway_detect_time_ms"] = append(srcs["gateway_detect_time_ms"], d.G.DetectTime())
		srcs["guest_deception_actions"] = append(srcs["guest_deception_actions"], d.F.Deception())
	}
	return srcs
}

// checkHists fails t unless got publishes each histogram of srcs as the
// merge of its sources: the count, min and max of their Histogram.Merge,
// the buckets storing them yields, and a sum rounded to micro-units one
// source at a time.
func checkHists(t *testing.T, when string, got []metrics.Point, srcs map[string][]*metrics.Histogram) {
	t.Helper()
	byName := make(map[string]metrics.Point, len(got))
	for _, p := range got {
		byName[p.Name] = p
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
		p, want := byName[name], stored.Snapshot()[0]
		if p.Kind != "hist" || p.Count != merged.Count() || p.Min != merged.Min() || p.Max != merged.Max() ||
			p.SumMicro != sumMicro || !reflect.DeepEqual(p.Buckets, want.Buckets) {
			t.Errorf("%s: %d sources merge to %s count %d min %v max %v sum_micro %d buckets %v, the registry has %+v",
				when, len(hs), name, merged.Count(), merged.Min(), merged.Max(), sumMicro, want.Buckets, p)
		}
	}
}

// TestRegistryEqualsStatsAtRest: once a call that drives the farm has
// returned, every gateway_*/farm_*/vmm_*/guest_* counter and gauge in
// the registry equals the Stats field it is a view of, summed over the
// shard domains, and every histogram the shard-order merge of the
// domains' Histograms — in every execution mode — and the guest totals
// keep what recycled guests counted.
func TestRegistryEqualsStatsAtRest(t *testing.T) {
	canary := guest.WindowsXP()
	canary.CanaryRatePerSec = 20
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"4-shard sequential", Options{GatewayShards: 4}},
		{"4-shard parallel", Options{GatewayShards: 4, Parallel: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			opts.Seed, opts.Metrics, opts.IdleTimeout = 7, true, time.Second
			opts.Policy, opts.GuestProfile = DropAll, canary
			hf := MustNew(opts)
			defer hf.Close()
			eng := hf.Internals().Engine
			check := func(when string) []metrics.Point {
				t.Helper()
				pts := hf.metrics.Snapshot()
				gs, fs := eng.GatewayStats(), eng.FarmStats()
				var hs vmm.HostStats
				var us guest.Stats
				for _, d := range eng.Domains() {
					h := d.F.HostStats()
					u, _ := d.F.GuestCumulative()
					hs.Add(&h)
					us.Add(&u)
				}
				checkPublished(t, when, pts, &gs, &fs, &hs, &us)
				checkHists(t, when, pts, histSources(eng.Domains()))
				return pts
			}

			check("after New")
			if err := hf.InjectExploit("198.51.100.10", "10.5.7.20"); err != nil {
				t.Fatal(err)
			}
			check("after InjectExploit")
			recs, err := hf.GenerateTrace(2*time.Second, 200)
			if err != nil {
				t.Fatal(err)
			}
			// Each call stops between two of the engine's once-a-second
			// publications with guests still alive and dirtying pages: only
			// the publication on return makes the registry exact.
			if _, err := hf.Replay(SliceSource(recs), WithEpilogue(37*time.Millisecond)); err != nil {
				t.Fatal(err)
			}
			check("after Replay")
			hf.RunFor(730 * time.Millisecond)
			pts := check("after RunFor")
			if seriesValue(t, pts, "gateway_inbound_packets_total") == 0 || seriesValue(t, pts, "gateway_out_dropped_total") == 0 ||
				seriesValue(t, pts, "vmm_cow_faults_total") == 0 || seriesValue(t, pts, "guest_packets_in_total") == 0 {
				t.Error("vacuous run: a series every mode must move is still zero")
			}

			// Whether the infected guest is still bound or has gone quiet
			// and been idle-recycled, its canaries stay counted once no
			// guest is left alive.
			canaries := seriesValue(t, pts, "guest_canaries_total")
			if canaries == 0 {
				t.Fatal("the infected guest sent no canary")
			}
			eng.RecycleAll()
			pts = check("after RecycleAll")
			for _, p := range pts {
				if p.Name == "guest_deception_actions" && p.Count == 0 {
					t.Error("no canary-probing guest went quiet: guest_deception_actions is empty")
				}
			}
			if got := seriesValue(t, pts, "guest_canaries_total"); got != canaries {
				t.Errorf("guest_canaries_total = %d after its guest was recycled, want the %d it had sent", got, canaries)
			}
			if seriesValue(t, pts, "farm_live_vms") != 0 || seriesValue(t, pts, "gateway_bindings_live") != 0 {
				t.Error("gauges still count VMs or bindings after RecycleAll")
			}
		})
	}
}

// TestMetricsPublishedMidRun reads the registry from a WithHalt
// callback — the driver goroutine, consulted at a barrier before every
// record, so what it sees is deterministic: the inbound counter never
// falls, never runs ahead of the records handed over, and has moved by
// the time a simulated second has been replayed. The parallel farm is
// also scraped by a second goroutine the whole time (run under -race).
func TestMetricsPublishedMidRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"4-shard parallel", Options{GatewayShards: 4, Parallel: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			opts.Seed, opts.Metrics, opts.IdleTimeout = 4, true, time.Second
			hf := MustNew(opts)
			defer hf.Close()
			recs, err := hf.GenerateTrace(3*time.Second, 200)
			if err != nil {
				t.Fatal(err)
			}

			if opts.Parallel {
				// Stopped and waited for on every way out of the subtest,
				// before the deferred Close above runs.
				stop, scraped := make(chan struct{}), make(chan int)
				go func() {
					n := 0
					for {
						select {
						case <-stop:
							scraped <- n
							return
						default:
							n += len(hf.metrics.Snapshot()) + len(hf.MetricsText())
						}
					}
				}()
				defer func() {
					close(stop)
					if n := <-scraped; n == 0 {
						t.Error("the concurrent scraper never read anything")
					}
				}()
			}

			inbound := hf.metrics.Counter("gateway_inbound_packets_total")
			var asked, last uint64 // halt calls so far; the counter as last read
			sawPositive := false
			halt := func() bool {
				asked++ // this call precedes record number asked: asked-1 are out
				got := inbound.Load()
				if got < last {
					t.Errorf("gateway_inbound_packets_total fell from %d to %d", last, got)
				}
				if got > asked-1 {
					t.Errorf("gateway_inbound_packets_total = %d with only %d records handed over", got, asked-1)
				}
				if time.Duration(hf.eng.Now()) >= time.Second && got == 0 {
					t.Errorf("nothing published by t=%v", time.Duration(hf.eng.Now()))
				}
				sawPositive = sawPositive || got > 0
				last = got
				return t.Failed()
			}
			if _, err := hf.Replay(SliceSource(recs), WithHalt(halt)); err != nil {
				t.Fatal(err)
			}
			if !sawPositive {
				t.Error("the counter was never positive mid-run")
			}
			if got, want := inbound.Load(), hf.Stats().InboundPackets; got != want || int(want) != len(recs) {
				t.Errorf("at rest: series %d, Stats %d, trace %d records", got, want, len(recs))
			}
		})
	}
}

// TestEpochLogProfile: a run with the epoch timeline attached yields
// parseable per-epoch samples with one slot per shard in the per-shard
// arrays, and the registry's barrier-wait histogram is populated — on a
// 4-shard parallel farm and on a default one, whose one domain runs the
// same epoch loop.
func TestEpochLogProfile(t *testing.T) {
	for _, tc := range []struct {
		name   string
		opts   Options
		shards int
	}{
		{"4-shard parallel", Options{Parallel: true, GatewayShards: 4}, 4},
		{"default", Options{}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var timeline bytes.Buffer
			opts := tc.opts
			opts.Seed, opts.Metrics, opts.EpochLog, opts.IdleTimeout = 5, true, &timeline, time.Second
			hf := MustNew(opts)
			recs, err := hf.GenerateTrace(time.Second, 150)
			if err != nil {
				t.Fatal(err)
			}
			hf.Replay(SliceSource(recs))
			hf.RunFor(time.Second)
			pts := hf.metrics.Snapshot()
			hf.Close() // flushes the buffered timeline

			samples, err := metrics.ReadEpochs(&timeline)
			if err != nil {
				t.Fatal(err)
			}
			if len(samples) == 0 {
				t.Fatal("empty epoch timeline")
			}
			for _, s := range samples[:1] {
				if len(s.AdvanceNS) != tc.shards || len(s.BarrierWaitNS) != tc.shards {
					t.Errorf("per-shard arrays not %d-wide: %+v", tc.shards, s)
				}
				if s.SlowestShard < 0 || s.SlowestShard >= tc.shards {
					t.Errorf("slowest shard out of range: %+v", s)
				}
			}
			var wait, epochs metrics.Point
			for _, p := range pts {
				switch p.Name {
				case "epoch_barrier_wait_ms":
					wait = p
				case "epochs_total":
					epochs = p
				}
			}
			if wait.Count == 0 {
				t.Error("epoch_barrier_wait_ms histogram empty")
			}
			if epochs.Value != int64(len(samples)) {
				t.Errorf("epochs_total = %d, timeline has %d", epochs.Value, len(samples))
			}
			if wait.Count != uint64(tc.shards*len(samples)) {
				t.Errorf("barrier-wait observations = %d, want %d", wait.Count, tc.shards*len(samples))
			}
		})
	}
}

// TestSnapshotIngestSummary: after a wire replay through the
// GRE-over-UDP listener, the facade snapshot carries the listener's
// loss accounting — received/dropped/seq-gap counters and the wire
// source's delivery totals.
func TestSnapshotIngestSummary(t *testing.T) {
	hf := MustNew(Options{Seed: 1, Wire: &WireOptions{Addr: "127.0.0.1:0"}})
	defer hf.Close()
	srv, err := hf.StartWire()
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() {
		_, err := srv.Serve()
		served <- err
	}()

	s, err := ingest.DialWire(srv.Addr().String(), 1, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const sent = 5
	src := netsim.MustParseAddr("203.0.113.9")
	dst := netsim.MustParseAddr("10.5.1.2")
	for i := 0; i < sent; i++ {
		at := sim.Time(i+1) * sim.Time(time.Millisecond)
		pkt := netsim.TCPSyn(src, dst, 40000, 445, uint32(i+1))
		if err := s.SendPacket(at, pkt); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); srv.Stats().Ingest.Received < sent; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the listener received %d of %d frames in 10s", srv.Stats().Ingest.Received, sent)
		}
	}
	srv.Stop()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not finish")
	}

	snap := hf.Snapshot()
	if snap.Ingest == nil {
		t.Fatal("snapshot has no ingest summary after a wire run")
	}
	ig := snap.Ingest
	if ig.Received != sent || ig.Delivered != sent {
		t.Errorf("ingest summary: %+v, want received=delivered=%d", ig, sent)
	}
	if ig.Dropped != 0 || ig.SeqGaps != 0 || ig.FrameErrors != 0 {
		t.Errorf("lossless loopback recorded loss: %+v", ig)
	}
	b, err := hf.MarshalSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"ingest"`) || !strings.Contains(string(b), `"seq_gaps"`) {
		t.Errorf("marshaled snapshot missing ingest block:\n%s", b)
	}
}
