// Package metrics provides the measurement plumbing shared by the
// honeyfarm and the benchmark harness: counters, log-bucketed histograms
// with percentile queries, time series, and fixed-width table / CSV
// rendering for the experiment reports.
package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// Histogram records a distribution of non-negative values in logarithmic
// buckets (16 sub-buckets per octave), giving percentile queries with
// bounded relative error (~±3%) in O(1) memory regardless of sample
// count. Exact min, max, sum, and count are tracked on the side.
//
// Bucket storage covers only the whole octaves between the smallest and
// the largest sample (128 bytes an octave), so an empty histogram holds
// none. A histogram with samples must not be copied by value — the copy
// would share its buckets; Merge into a fresh one instead.
type Histogram struct {
	buckets []uint64 // octaves lo, lo+1, …: bucket index lo*subBuckets+i at i
	lo      int
	count   uint64
	sum     float64
	min     float64
	max     float64
}

const (
	subBuckets = 16
	numBuckets = 64 * subBuckets // 64 octaves
)

// bucketIndex maps v (>= 0) to its bucket, straight from the float's
// bits: for v >= 1 the biased exponent is the octave and the top four
// mantissa bits are the sub-bucket, so the 16 bits above bit 48 are the
// index once the bias is taken off. Past the last octave (and at +Inf)
// it is the last bucket.
func bucketIndex(v float64) int {
	if v < 1 {
		return 0
	}
	idx := int(math.Float64bits(v)>>48) - 1023*subBuckets
	if idx >= numBuckets {
		idx = numBuckets - 1
	}
	return idx
}

// cover extends the bucket storage, if need be, to octaves lo through hi.
func (h *Histogram) cover(lo, hi int) {
	if len(h.buckets) == 0 {
		h.lo = lo
	}
	end := h.lo + len(h.buckets)/subBuckets // one past the last octave held
	if lo >= h.lo && hi < end {
		return
	}
	lo, hi = min(lo, h.lo), max(hi, end-1)
	buckets := make([]uint64, (hi-lo+1)*subBuckets)
	copy(buckets[(h.lo-lo)*subBuckets:], h.buckets)
	h.buckets, h.lo = buckets, lo
}

// bucketValue returns a representative (geometric midpoint) value for a
// bucket index.
func bucketValue(idx int) float64 {
	if idx == 0 {
		return 0.5
	}
	exp := idx / subBuckets
	sub := idx % subBuckets
	base := math.Exp2(float64(exp))
	// float64 rounds each product: no fused multiply-add (make vet).
	lo := base + float64(base*float64(sub)/subBuckets)
	hi := base + float64(base*float64(sub+1)/subBuckets)
	return (lo + hi) / 2
}

// Observe records one sample. Negative values are clamped to zero.
func (h *Histogram) Observe(v float64) {
	if v < 0 {
		v = 0
	}
	if h.count == 0 {
		h.min, h.max = v, v
	} else {
		if v < h.min {
			h.min = v
		}
		if v > h.max {
			h.max = v
		}
	}
	h.count++
	h.sum += v
	idx := bucketIndex(v)
	h.cover(idx/subBuckets, idx/subBuckets)
	h.buckets[idx-h.lo*subBuckets]++
}

// Count returns the number of observed samples.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the exact sum of all samples.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the exact sample mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the smallest sample, or 0 with no samples.
func (h *Histogram) Min() float64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest sample, or 0 with no samples.
func (h *Histogram) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile returns the approximate q-quantile (q in [0, 1]); exact min
// and max are returned at the extremes.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := uint64(q * float64(h.count))
	if target >= h.count {
		target = h.count - 1
	}
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum > target {
			v := bucketValue(h.lo*subBuckets + i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Merge folds other's samples into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.count == 0 {
		return
	}
	if h.count == 0 {
		h.min, h.max = other.min, other.max
	} else {
		if other.min < h.min {
			h.min = other.min
		}
		if other.max > h.max {
			h.max = other.max
		}
	}
	h.count += other.count
	h.sum += other.sum
	h.cover(other.lo, other.lo+len(other.buckets)/subBuckets-1)
	off := (other.lo - h.lo) * subBuckets
	for i, c := range other.buckets {
		h.buckets[off+i] += c
	}
}

// histogramJSON is a Histogram's encoding: its fields as they are, the
// bucket storage included.
type histogramJSON struct {
	Lo      int      `json:"lo,omitempty"`
	Count   uint64   `json:"n,omitempty"`
	Sum     float64  `json:"sum"` // no omitempty: it would drop a -0
	Min     float64  `json:"min"`
	Max     float64  `json:"max"`
	Buckets []uint64 `json:"b,omitempty"`
}

// MarshalJSON encodes h exactly: UnmarshalJSON rebuilds an equal
// histogram, its sum to the bit.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	return json.Marshal(histogramJSON{h.lo, h.count, h.sum, h.min, h.max, h.buckets})
}

// UnmarshalJSON decodes what MarshalJSON encoded. It rejects a layout
// Merge and Quantile could not index: storage starting below octave 0,
// reaching past the last octave or not in whole octaves, or bucket
// counts that do not add up to the sample count.
func (h *Histogram) UnmarshalJSON(b []byte) error {
	var e histogramJSON
	if err := json.Unmarshal(b, &e); err != nil {
		return err
	}
	n, overflow := uint64(0), false
	for _, c := range e.Buckets {
		n += c
		overflow = overflow || n < c
	}
	if e.Lo < 0 || len(e.Buckets)%subBuckets != 0 || e.Lo > numBuckets/subBuckets-len(e.Buckets)/subBuckets || overflow || n != e.Count {
		return fmt.Errorf("metrics: a histogram of %d samples in %d buckets from octave %d does not fit the %d octaves",
			e.Count, len(e.Buckets), e.Lo, numBuckets/subBuckets)
	}
	*h = Histogram{buckets: e.Buckets, lo: e.Lo, count: e.Count, sum: e.Sum, min: e.Min, max: e.Max}
	return nil
}

// Summary formats count/mean/p50/p95/p99/max on one line.
func (h *Histogram) Summary() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%.1f p95=%.1f p99=%.1f max=%.1f",
		h.count, h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Max())
}

// Series is an append-only time series of (time-seconds, value) samples.
type Series struct {
	Name string
	T    []float64
	V    []float64
}

// Add appends a sample. Times should be non-decreasing.
func (s *Series) Add(t, v float64) {
	s.T = append(s.T, t)
	s.V = append(s.V, v)
}

// Quantile returns the exact q-quantile of the values (nearest-rank).
func (s *Series) Quantile(q float64) float64 {
	if len(s.V) == 0 {
		return 0
	}
	sorted := append([]float64(nil), s.V...)
	sort.Float64s(sorted)
	idx := int(q * float64(len(sorted)))
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// Downsample returns a copy with at most n points, keeping every k'th
// sample. Used to keep experiment CSV outputs readable.
func (s *Series) Downsample(n int) *Series {
	if n <= 0 || len(s.T) <= n {
		c := &Series{Name: s.Name}
		c.T = append(c.T, s.T...)
		c.V = append(c.V, s.V...)
		return c
	}
	out := &Series{Name: s.Name}
	step := float64(len(s.T)) / float64(n)
	for i := 0; i < n; i++ {
		j := int(float64(i) * step)
		out.Add(s.T[j], s.V[j])
	}
	return out
}
