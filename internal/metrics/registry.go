package metrics

// Live telemetry registry: named counters, gauges, and histograms with
// an atomic, allocation-free hot path. Unlike Histogram/Series (offline
// experiment aggregation, single-threaded), the registry is scraped
// concurrently by HTTP handlers while the simulation runs, so every
// instrument is built on sync/atomic and is safe to read at any time
// without touching sim state.
//
// The simulated farm's counters and gauges (gateway_*, farm_*, vmm_*,
// guest_*) are not bumped per event: the packages count in their plain
// Stats structs and an Exporter stores those here at epoch barriers.
// Updated in place is only what has no struct to read from: the
// event-rate histograms, the ingest listener's counters, EpochProfiler.
//
// Determinism contract: the registry is observability-only. Published
// values are sums of per-domain integers and histogram sums are kept in
// integer micro-units, so two same-seed runs expose identical snapshots
// however their shard goroutines interleaved. Wall-clock timings
// recorded through EpochProfiler are the one nondeterministic family.
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

// Hist is the registry's concurrency-safe histogram: the same
// log-bucket layout as Histogram (16 sub-buckets per octave, ~±3%
// relative error) with atomic bucket counts. The running sum is kept in
// integer micro-units so that — unlike a floating-point accumulator —
// the total is exactly independent of the order concurrent observers
// interleaved in. Min/max are monotone CAS loops (order-independent by
// construction). All methods are nil-safe.
type Hist struct {
	count    atomic.Uint64
	sumMicro atomic.Int64
	minBits  atomic.Uint64 // float64 bits; initialized to +Inf by newHist
	maxBits  atomic.Uint64 // float64 bits; initialized to -Inf by newHist
	buckets  [numBuckets]atomic.Uint64
}

func newHist() *Hist {
	h := &Hist{}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one sample. Negative values are clamped to zero.
func (h *Hist) Observe(v float64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sumMicro.Add(int64(math.Round(v * 1e6)))
	for {
		o := h.minBits.Load()
		if math.Float64frombits(o) <= v || h.minBits.CompareAndSwap(o, math.Float64bits(v)) {
			break
		}
	}
	for {
		o := h.maxBits.Load()
		if math.Float64frombits(o) >= v || h.maxBits.CompareAndSwap(o, math.Float64bits(v)) {
			break
		}
	}
}

// Count returns the number of samples (0 on nil).
func (h *Hist) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
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

// Mean returns a histogram point's sample mean (0 when empty).
func (p Point) Mean() float64 {
	if p.Count == 0 {
		return 0
	}
	return p.Sum() / float64(p.Count)
}

// Quantile returns the approximate q-quantile (0 <= q <= 1) of a
// histogram point from its buckets, 0 when empty. Like
// Histogram.Quantile, results are clamped to the exact [Min, Max] so
// bucket rounding never reports a value outside the observed range.
func (p Point) Quantile(q float64) float64 {
	if p.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(p.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for _, b := range p.Buckets {
		seen += b.N
		if seen >= rank {
			v := bucketValue(b.Idx)
			if v < p.Min {
				v = p.Min
			}
			if v > p.Max {
				v = p.Max
			}
			return v
		}
	}
	return p.Max
}

// Registry is a namespace of instruments. Get-or-create accessors are
// mutex-guarded (call them at construction time, not on hot paths);
// the instruments themselves are lock-free. A nil *Registry is a valid
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
		h = newHist()
		r.hists[name] = h
	}
	return h
}

// Snapshot returns every instrument's current state sorted by name
// (counters, then gauges, then histograms on a name tie — names are
// expected to be unique across kinds). Safe to call concurrently with
// updates; each instrument is read atomically field by field, so a
// snapshot taken mid-run is a consistent-enough live view, and a
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
		p := Point{Name: name, Kind: "hist", Count: h.count.Load(), SumMicro: h.sumMicro.Load()}
		if p.Count > 0 {
			p.Min = math.Float64frombits(h.minBits.Load())
			p.Max = math.Float64frombits(h.maxBits.Load())
		}
		for i := range h.buckets {
			if n := h.buckets[i].Load(); n > 0 {
				p.Buckets = append(p.Buckets, Bucket{Idx: i, N: n})
			}
		}
		pts = append(pts, p)
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].Name != pts[j].Name {
			return pts[i].Name < pts[j].Name
		}
		return pts[i].Kind < pts[j].Kind
	})
	return pts
}

// MergePoints folds src into dst by (name, kind): counters and gauges
// add, histograms add counts/sums, widen min/max, and union-add
// buckets. Both inputs must be Snapshot-style sorted; the result is
// sorted the same way. Neither input is modified.
func MergePoints(dst, src []Point) []Point {
	byKey := make(map[[2]string]int, len(dst))
	out := make([]Point, len(dst))
	copy(out, dst)
	for i, p := range out {
		byKey[[2]string{p.Name, p.Kind}] = i
	}
	for _, p := range src {
		i, ok := byKey[[2]string{p.Name, p.Kind}]
		if !ok {
			byKey[[2]string{p.Name, p.Kind}] = len(out)
			out = append(out, p)
			continue
		}
		d := &out[i]
		switch p.Kind {
		case "counter", "gauge":
			d.Value += p.Value
		case "hist":
			if d.Count == 0 {
				d.Min, d.Max = p.Min, p.Max
			} else if p.Count > 0 {
				d.Min = math.Min(d.Min, p.Min)
				d.Max = math.Max(d.Max, p.Max)
			}
			d.Count += p.Count
			d.SumMicro += p.SumMicro
			d.Buckets = mergeBuckets(d.Buckets, p.Buckets)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

func mergeBuckets(a, b []Bucket) []Bucket {
	out := make([]Bucket, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Idx < b[j].Idx:
			out = append(out, a[i])
			i++
		case a[i].Idx > b[j].Idx:
			out = append(out, b[j])
			j++
		default:
			out = append(out, Bucket{Idx: a[i].Idx, N: a[i].N + b[j].N})
			i, j = i+1, j+1
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
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
			_, err = fmt.Fprintf(w, "# TYPE %s summary\n", p.Name)
			if err == nil {
				for _, q := range [...]float64{0.5, 0.9, 0.99} {
					if _, err = fmt.Fprintf(w, "%s{quantile=\"%g\"} %g\n", p.Name, q, p.Quantile(q)); err != nil {
						break
					}
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
