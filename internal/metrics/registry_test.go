package metrics

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestNilRegistryIsTelemetryOff: a nil registry hands out nil
// instruments whose every method is a no-op — the telemetry-off path
// must never allocate, panic, or record.
func TestNilRegistryIsTelemetryOff(t *testing.T) {
	var r *Registry
	c, g, h := r.Counter("c"), r.Gauge("g"), r.Hist("h")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry handed out non-nil instruments")
	}
	c.Inc()
	c.Add(5)
	g.Set(9)
	h.Observe(1.5)
	if c.Load() != 0 || g.Load() != 0 || h.Count() != 0 {
		t.Error("nil instruments recorded values")
	}
	if pts := r.Snapshot(); pts != nil {
		t.Errorf("nil registry snapshot = %v", pts)
	}
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil registry WriteProm: err=%v len=%d", err, buf.Len())
	}
}

// TestRegistryGetOrCreate: the same name returns the same instrument,
// so call sites resolved at construction all feed one series.
func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a, b := r.Counter("x"), r.Counter("x")
	if a != b {
		t.Error("same name returned distinct counters")
	}
	a.Inc()
	if b.Load() != 1 {
		t.Error("aliased counter did not share state")
	}
	if r.Hist("h") != r.Hist("h") {
		t.Error("same name returned distinct hists")
	}
}

// TestSnapshotDeterministicOrder: snapshots are sorted by name then
// kind regardless of registration order, so two same-seed runs emit
// byte-identical snapshots.
func TestSnapshotDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	r.Hist("zeta").Observe(1)
	r.Counter("alpha").Add(2)
	r.Gauge("mid").Set(-7)
	r.Counter("beta").Inc()
	pts := r.Snapshot()
	var names []string
	for _, p := range pts {
		names = append(names, p.Name)
	}
	want := []string{"alpha", "beta", "mid", "zeta"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("snapshot order = %v, want %v", names, want)
	}
	if pts[2].Kind != "gauge" || pts[2].Value != -7 {
		t.Errorf("gauge point = %+v", pts[2])
	}
}

// TestHistPointRoundTrip: a histogram's snapshot Point reproduces
// count, sum, min, max and buckets, and its quantiles are the source
// Histogram's at every q — one rank rule, whether the samples were
// observed into the registry or stored from a Histogram kept elsewhere.
func TestHistPointRoundTrip(t *testing.T) {
	r := NewRegistry()
	h := r.Hist("lat_ms")
	for _, v := range []float64{1, 2, 4, 8, 100} {
		h.Observe(v)
	}
	h.Observe(-5) // clamps to 0
	pts := r.Snapshot()
	p := pts[0]
	if p.Count != 6 {
		t.Fatalf("count = %d", p.Count)
	}
	if got := p.Sum(); math.Abs(got-115) > 0.001 {
		t.Errorf("sum = %v", got)
	}
	if p.Min != 0 || p.Max != 100 {
		t.Errorf("min/max = %v/%v", p.Min, p.Max)
	}
	ph := p.Histogram()
	if q := ph.Quantile(0.5); q < 1 || q > 8 {
		t.Errorf("p50 = %v", q)
	}
	if q := ph.Quantile(1); q != 100 {
		t.Errorf("p100 = %v, want max", q)
	}
	if len(p.Buckets) == 0 {
		t.Error("no sparse buckets in snapshot")
	}

	for _, samples := range [][]float64{{1, 100}, {1, 2, 4, 8, 100, -5}, {0.25, 3, 3, 3, 7e6}, {42}} {
		var src Histogram
		r := NewRegistry()
		for _, v := range samples {
			src.Observe(v)
			r.Hist("observed").Observe(v)
		}
		r.Hist("stored").Store([]*Histogram{&src})
		for _, p := range r.Snapshot() {
			ph := p.Histogram()
			for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
				if got, want := ph.Quantile(q), src.Quantile(q); got != want {
					t.Errorf("%v, %s: the point's q%v is %v, the source Histogram's %v", samples, p.Name, q, got, want)
				}
			}
			if p.Count != src.Count() || p.Min != src.Min() || p.Max != src.Max() || p.SumMicro != micro(src.Sum()) {
				t.Errorf("%v, %s: point %+v, source count %d min %v max %v sum %v", samples, p.Name, p, src.Count(), src.Min(), src.Max(), src.Sum())
			}
		}
	}
}

// TestHistStoreMergesSources: Store replaces what the histogram held
// with the merge of its sources, rounds each source's sum to micro-units
// before adding, and allocates nothing once it has covered their range.
func TestHistStoreMergesSources(t *testing.T) {
	var a, b, empty Histogram
	for _, v := range []float64{0.0000004, 3.5, 17} {
		a.Observe(v)
	}
	for _, v := range []float64{0.0000004, 0.0000004, 1e4} {
		b.Observe(v)
	}
	var merged Histogram
	merged.Merge(&a)
	merged.Merge(&b)

	r := NewRegistry()
	h := r.Hist("ms")
	h.Observe(1e9) // replaced, not added to
	h.Store([]*Histogram{&a, &empty, &b})
	p := r.Snapshot()[0]
	if want := micro(a.Sum()) + micro(b.Sum()); p.SumMicro != want {
		t.Errorf("SumMicro = %d, want %d (rounded per source)", p.SumMicro, want)
	}
	got := p.Histogram()
	if got.count != merged.count || got.min != merged.min || got.max != merged.max || !reflect.DeepEqual(got.buckets, merged.buckets) {
		t.Errorf("stored %+v, merged sources %+v", got, merged)
	}

	if n := testing.AllocsPerRun(50, func() { h.Store([]*Histogram{&a, &empty, &b}) }); n != 0 {
		t.Errorf("a warm Store allocates %v objects, want 0", n)
	}
	h.Store(nil)
	if p := r.Snapshot()[0]; p.Count != 0 || p.SumMicro != 0 || len(p.Buckets) != 0 {
		t.Errorf("storing no sources left %+v", p)
	}
}

// TestConcurrentUpdatesOrderIndependent: N goroutines hammering the
// same instruments must land on the exact deterministic totals —
// integer atomics and micro-unit sums make the result independent of
// interleaving. Run under -race this also proves scrape safety.
func TestConcurrentUpdatesOrderIndependent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops")
	h := r.Hist("ms")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() { // concurrent scraper
		for {
			select {
			case <-stop:
				return
			default:
				r.Snapshot()
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(float64(i%10) + 0.5)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if c.Load() != workers*per {
		t.Errorf("counter = %d, want %d", c.Load(), workers*per)
	}
	pts := r.Snapshot()
	var hp Point
	for _, p := range pts {
		if p.Name == "ms" {
			hp = p
		}
	}
	if hp.Count != workers*per {
		t.Errorf("hist count = %d", hp.Count)
	}
	// sum = workers * sum_{i=0..per-1} (i%10 + 0.5): exact in micro-units.
	wantSum := float64(workers) * float64(per) * 5.0
	if math.Abs(hp.Sum()-wantSum) > 1e-6 {
		t.Errorf("hist sum = %v, want %v", hp.Sum(), wantSum)
	}
}

// TestWriteProm: the text exposition is Prometheus 0.0.4-parseable —
// every series line is "name value" or "name{quantile=..} value", with
// a TYPE comment per metric.
func TestWriteProm(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs_total").Add(42)
	r.Gauge("live").Set(-3)
	h := r.Hist("ms")
	h.Observe(1)
	h.Observe(3)
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE live gauge\nlive -3\n",
		"# TYPE reqs_total counter\nreqs_total 42\n",
		"# TYPE ms summary\n",
		`ms{quantile="0.5"}`,
		`ms{quantile="0.99"}`,
		"ms_sum 4\n",
		"ms_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Structural check: every non-comment line is exactly two fields.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if n := len(strings.Fields(line)); n != 2 {
			t.Errorf("malformed series line (%d fields): %q", n, line)
		}
	}
}
