package core

import (
	"reflect"
	"testing"

	"potemkin/internal/farm"
	"potemkin/internal/gateway"
	"potemkin/internal/guest"
	"potemkin/internal/metrics"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/vmm"
)

// checkStats fails t unless every integer field of T carries a metric
// tag and add, from a zero dst, reproduces a src holding a distinct
// value in every field. It returns the series names.
func checkStats[T any](t *testing.T, add func(dst, src *T)) []string {
	t.Helper()
	var dst, src T
	v := reflect.ValueOf(&src).Elem()
	var names []string
	for i := 0; i < v.NumField(); i++ {
		f, sf := v.Field(i), v.Type().Field(i)
		if !f.CanInt() && !f.CanUint() {
			continue
		}
		f.Set(reflect.ValueOf(i + 1).Convert(f.Type()))
		if sf.Tag.Get("metric") == "" {
			t.Errorf("%T.%s has no metric tag: it would be counted and never exported", src, sf.Name)
		}
		names = append(names, sf.Tag.Get("metric"))
	}
	if add(&dst, &src); !reflect.DeepEqual(dst, src) {
		t.Errorf("Add dropped or crossed a field:\n got %+v\nwant %+v", dst, src)
	}
	return names
}

// TestStatsExportedMergedUnique: a counter cannot be added to one of the
// four Stats types without being exported (a metric tag) and merged (its
// type's Add), and — they publish into one registry — no two fields
// anywhere, nor a field and one of the view's histograms, may claim one
// series name.
func TestStatsExportedMergedUnique(t *testing.T) {
	var names []string
	names = append(names, checkStats(t, (*gateway.Stats).Add)...)
	names = append(names, checkStats(t, (*farm.Stats).Add)...)
	names = append(names, checkStats(t, (*vmm.HostStats).Add)...)
	names = append(names, checkStats(t, (*guest.Stats).Add)...)
	names = append(names, "vmm_clone_ms", "gateway_detect_time_ms", "guest_deception_actions")
	seen := make(map[string]bool, len(names))
	for _, name := range names {
		if seen[name] {
			t.Errorf("series %s is claimed by two Stats fields", name)
		}
		seen[name] = true
	}
	reg := metrics.NewRegistry()
	NewStatsView(reg, nil)
	if got := len(reg.Snapshot()); got != len(names) || got == 0 {
		t.Errorf("a StatsView registers %d series, the four types tag %d fields besides its 3 histograms", got, len(names)-3)
	}
}

// TestStatsViewPublishCadence: mid-run the view publishes at the first
// barrier at or past each publishEvery of simulated time and at none
// between; Publish is unconditional; once warm neither allocates, with
// every histogram holding samples; a nil view does nothing.
func TestStatsViewPublishCadence(t *testing.T) {
	reg := metrics.NewRegistry()
	gc := gateway.DefaultConfig()
	fc := farm.DefaultConfig()
	d, err := NewShardDomain(ShardEngineConfig{Shards: 1, Seed: 1, Gateway: gc, Farm: fc, Metrics: reg}, 0,
		func(sim.Time, int, *netsim.Packet) { t.Error("one domain sent across shards") })
	if err != nil {
		t.Fatal(err)
	}
	v := NewStatsView(reg, []*ShardDomain{d})
	inbound := reg.Counter("gateway_inbound_packets_total")
	probe := func() {
		d.G.HandleInbound(d.K.Now(), netsim.TCPSyn(netsim.MustParseAddr("200.1.1.1"), netsim.MustParseAddr("10.5.0.1"), 40000, 445, 1))
	}
	// step probes the gateway once, reports a barrier at the given number
	// of publication periods, and returns what the registry then shows.
	step := func(periods float64) uint64 {
		probe()
		v.PublishDue(sim.Time(periods * float64(publishEvery)))
		return inbound.Load()
	}
	for _, tc := range []struct {
		at   float64
		want uint64
		why  string
	}{
		{0.01, 1, "the first barrier of a run publishes"},
		{0.99, 1, "a barrier inside the period does not"},
		{1.37, 3, "the first barrier past the period does"},
		{1.99, 3, "and leaves the grid where it was"},
		{2.00, 5, "a barrier on the grid publishes"},
	} {
		if got := step(tc.at); got != tc.want {
			t.Errorf("at %.2f periods the registry shows %d probes, want %d: %s", tc.at, got, tc.want, tc.why)
		}
	}
	probe()
	if v.Publish(); inbound.Load() != 6 {
		t.Errorf("Publish between barriers left the registry at %d probes, want 6", inbound.Load())
	}

	// Every histogram has samples, so a publication merges real buckets.
	d.F.Hosts()[0].CloneLatency.Observe(3)
	d.G.DetectTime().Observe(1500)
	d.F.Deception().Observe(7)
	v.Publish()
	for _, p := range reg.Snapshot() {
		if p.Kind == "hist" && p.Count == 0 {
			t.Errorf("%s published empty", p.Name)
		}
	}
	now := sim.Time(3 * publishEvery)
	if n := testing.AllocsPerRun(50, func() {
		now += sim.Time(publishEvery)
		v.PublishDue(now)
	}); n != 0 {
		t.Errorf("publishing allocates %v objects, want 0", n)
	}

	off := NewStatsView(nil, []*ShardDomain{d})
	off.Publish()
	off.PublishDue(sim.Time(100 * publishEvery))
}
