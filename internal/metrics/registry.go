package metrics

// Live telemetry registry: named counters, gauges, and histograms that
// HTTP handlers scrape while the simulation runs, so every instrument is
// safe to read at any time without touching sim state: counters and
// gauges are atomics, a histogram is a Histogram behind a mutex.
//
// The simulated farm's series (gateway_*, farm_*, vmm_*, guest_*) are
// not recorded per event: the packages count in their plain Stats
// structs and Histograms, and core.StatsView stores those here at epoch
// barriers. Updated in place is only what has no struct to read from:
// the ingest listener's counters, its arrival-lag histogram, and
// EpochProfiler.
//
// Determinism contract: the registry is observability-only. Published
// values are sums of per-domain integers, a histogram's sum is kept in
// integer micro-units (rounded once per source a view stores), and a
// point's quantiles follow Histogram's one rank rule, so two same-seed
// runs expose identical snapshots however their shard goroutines
// interleaved. Wall-clock timings recorded through EpochProfiler are the
// one nondeterministic family.
//
// A nil *Registry hands out nil instruments whose methods are no-ops.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. The zero value is
// ready; all methods are safe on a nil receiver (no-op / zero).
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Store sets the counter to a total kept elsewhere (see Exporter).
func (c *Counter) Store(v uint64) {
	if c == nil {
		return
	}
	c.v.Store(v)
}

// Load returns the current value (0 on nil).
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous signed value. The zero value is ready; all
// methods are safe on a nil receiver.
type Gauge struct{ v atomic.Int64 }

// Set stores an absolute value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Load returns the current value (0 on nil).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Hist is the registry's histogram: a Histogram behind a mutex, with
// its sum also kept in integer micro-units, so that the published total
// is exact however its parts were added up. It is written one of two
// ways. Observe is for a recorder with no struct to read from
// (EpochProfiler, the wire source's arrival lag); Store is for a view
// over Histograms kept elsewhere (core.StatsView). All methods are
// nil-safe.
type Hist struct {
	mu       sync.Mutex
	h        Histogram
	sumMicro int64
}

// micro is v in integer micro-units.
func micro(v float64) int64 { return int64(math.Round(v * 1e6)) }

// Observe records one sample. Negative values are clamped to zero.
func (h *Hist) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.h.Observe(v)
	h.sumMicro += micro(max(v, 0))
	h.mu.Unlock()
}

// Store replaces the samples with the merge of srcs, in order. The sum
// is each source's rounded to micro-units, then added, so it is an
// exact integer however the sources' own sums were formed. Once the
// histogram has covered the sources' range, Store allocates nothing.
func (h *Hist) Store(srcs []*Histogram) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	clear(h.h.buckets)
	h.h = Histogram{buckets: h.h.buckets, lo: h.h.lo}
	h.sumMicro = 0
	for _, src := range srcs {
		h.h.Merge(src)
		h.sumMicro += micro(src.sum)
	}
}

// point is the histogram's snapshot Point.
func (h *Hist) point(name string) Point {
	h.mu.Lock()
	defer h.mu.Unlock()
	p := Point{Name: name, Kind: "hist", Count: h.h.count, SumMicro: h.sumMicro, Min: h.h.Min(), Max: h.h.Max()}
	for i, n := range h.h.buckets {
		if n > 0 {
			p.Buckets = append(p.Buckets, Bucket{Idx: h.h.lo*subBuckets + i, N: n})
		}
	}
	return p
}

// Bucket is one non-empty histogram bucket in a snapshot Point.
type Bucket struct {
	Idx int    `json:"i"`
	N   uint64 `json:"n"`
}

// Point is one instrument's state in a deterministic snapshot. Counter
// and gauge points carry Value; histogram points carry Count, SumMicro,
// Min, Max, and the sparse ascending-index bucket list.
type Point struct {
	Name     string   `json:"name"`
	Kind     string   `json:"kind"` // "counter" | "gauge" | "hist"
	Value    int64    `json:"value,omitempty"`
	Count    uint64   `json:"count,omitempty"`
	SumMicro int64    `json:"sum_micro,omitempty"`
	Min      float64  `json:"min,omitempty"`
	Max      float64  `json:"max,omitempty"`
	Buckets  []Bucket `json:"buckets,omitempty"`
}

// Sum returns a histogram point's sample sum in original units.
func (p Point) Sum() float64 { return float64(p.SumMicro) / 1e6 }

// Histogram rebuilds the distribution a histogram point was taken from,
// with its sum to the micro-unit: a point's quantiles are that
// Histogram's. Every point comes from a Hist of this registry's layout.
func (p Point) Histogram() Histogram {
	h := Histogram{count: p.Count, sum: p.Sum(), min: p.Min, max: p.Max}
	for _, b := range p.Buckets {
		h.cover(b.Idx/subBuckets, b.Idx/subBuckets)
		h.buckets[b.Idx-h.lo*subBuckets] += b.N
	}
	return h
}

// Registry is a namespace of instruments. Get-or-create accessors are
// mutex-guarded (call them at construction time, not on hot paths);
// counters and gauges are lock-free, a histogram takes only its own
// mutex. A nil *Registry is a valid
// "telemetry off" registry: it hands out nil instruments and empty
// snapshots.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Hist
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Hist),
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a valid no-op instrument) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Hist returns the named histogram, creating it on first use. Returns
// nil on a nil registry.
func (r *Registry) Hist(name string) *Hist {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Hist{}
		r.hists[name] = h
	}
	return h
}

// Snapshot returns every instrument's current state sorted by name
// (counters, then gauges, then histograms on a name tie — names are
// expected to be unique across kinds). Safe to call concurrently with
// updates; each instrument is read whole (a histogram under its mutex),
// so a snapshot taken mid-run is a consistent-enough live view, and a
// snapshot taken when no updaters are running is exact. Nil-safe.
func (r *Registry) Snapshot() []Point {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	pts := make([]Point, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		pts = append(pts, Point{Name: name, Kind: "counter", Value: int64(c.Load())})
	}
	for name, g := range r.gauges {
		pts = append(pts, Point{Name: name, Kind: "gauge", Value: g.Load()})
	}
	for name, h := range r.hists {
		pts = append(pts, h.point(name))
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].Name != pts[j].Name {
			return pts[i].Name < pts[j].Name
		}
		return pts[i].Kind < pts[j].Kind
	})
	return pts
}

// WriteProm renders points in the Prometheus text exposition format
// (version 0.0.4, stdlib only). Counters and gauges map directly;
// histograms are rendered as summaries with 0.5/0.9/0.99 quantile
// series plus _sum and _count.
func WriteProm(w io.Writer, pts []Point) error {
	for _, p := range pts {
		var err error
		switch p.Kind {
		case "counter":
			_, err = fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", p.Name, p.Name, p.Value)
		case "gauge":
			_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", p.Name, p.Name, p.Value)
		case "hist":
			h := p.Histogram()
			_, err = fmt.Fprintf(w, "# TYPE %s summary\n", p.Name)
			for _, q := range [...]float64{0.5, 0.9, 0.99} {
				if err == nil {
					_, err = fmt.Fprintf(w, "%s{quantile=\"%g\"} %g\n", p.Name, q, h.Quantile(q))
				}
			}
			if err == nil {
				_, err = fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", p.Name, p.Sum(), p.Name, p.Count)
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteProm renders the registry's live state in Prometheus text
// format. Safe to call from any goroutine; nil-safe (writes nothing).
func (r *Registry) WriteProm(w io.Writer) error {
	return WriteProm(w, r.Snapshot())
}
