package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"potemkin/internal/sim"
)

// Every server carries a handful of histograms for its lifetime, so
// their header is part of what a server costs the host.
func TestHistogramSize(t *testing.T) {
	if got := unsafe.Sizeof(Histogram{}); got > 64 {
		t.Errorf("Histogram is %d bytes, want at most 64", got)
	}
}

// fixedHistogram is Histogram as it was before its storage followed its
// samples: every bucket of every octave, always. It is the reference
// the sparse layout must reproduce bit for bit.
type fixedHistogram struct {
	buckets [numBuckets]uint64
	count   uint64
	sum     float64
	min     float64
	max     float64
}

func (h *fixedHistogram) Observe(v float64) {
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
	h.buckets[bucketIndex(v)]++
}

func (h *fixedHistogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

func (h *fixedHistogram) Min() float64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

func (h *fixedHistogram) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

func (h *fixedHistogram) Quantile(q float64) float64 {
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
			v := bucketValue(i)
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

func (h *fixedHistogram) Merge(other *fixedHistogram) {
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
	for i := range h.buckets {
		h.buckets[i] += other.buckets[i]
	}
}

func (h *fixedHistogram) Summary() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%.1f p95=%.1f p99=%.1f max=%.1f",
		h.count, h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Max())
}

// sameHistogram fails unless h answers every query bit for bit as ref.
func sameHistogram(t *testing.T, what string, h *Histogram, ref *fixedHistogram) {
	t.Helper()
	eq := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if h.Count() != ref.count || !eq(h.Sum(), ref.sum) || !eq(h.Min(), ref.Min()) ||
		!eq(h.Max(), ref.Max()) || !eq(h.Mean(), ref.Mean()) {
		t.Fatalf("%s: count/sum/min/max %d/%v/%v/%v, reference %d/%v/%v/%v", what,
			h.Count(), h.Sum(), h.Min(), h.Max(), ref.count, ref.sum, ref.Min(), ref.Max())
	}
	for i := 0; i <= 100; i++ {
		q := float64(i) / 100
		if got, want := h.Quantile(q), ref.Quantile(q); !eq(got, want) {
			t.Fatalf("%s: Quantile(%v) = %v, reference %v", what, q, got, want)
		}
	}
	if got, want := h.Summary(), ref.Summary(); got != want {
		t.Fatalf("%s: Summary %q, reference %q", what, got, want)
	}
}

// TestHistogramMatchesFixedBuckets observes the same samples into both
// layouts — random values from 0 to 1e15 plus the edges: 0, 1, one ulp
// below every power of two, +Inf and negatives — and merges ranges that
// are empty, disjoint, overlapping and nested, in both orders.
func TestHistogramMatchesFixedBuckets(t *testing.T) {
	rng := sim.NewRNG(27)
	// sample draws from [10^lo, 10^hi), log-uniformly, with the edges
	// mixed in now and then when lo is 0 (a range with edges spans every
	// octave from the first).
	sample := func(lo, hi float64) float64 {
		if lo > 0 {
			return math.Pow(10, lo+(hi-lo)*rng.Float64())
		}
		switch rng.Uint64n(40) {
		case 0:
			return 0
		case 1:
			return 1
		case 2:
			return math.Nextafter(math.Exp2(float64(1+rng.Uint64n(63))), 0)
		case 3:
			return math.Inf(1)
		case 4:
			return -rng.Float64() * 1e6
		}
		return math.Pow(10, lo+(hi-lo)*rng.Float64())
	}
	fill := func(n int, lo, hi float64) (*Histogram, *fixedHistogram) {
		h, ref := &Histogram{}, &fixedHistogram{}
		for i := 0; i < n; i++ {
			v := sample(lo, hi)
			h.Observe(v)
			ref.Observe(v)
		}
		return h, ref
	}

	for i := 0; i < 40; i++ {
		lo := float64(rng.Uint64n(2)) * 10 * rng.Float64()
		h, ref := fill(1+int(rng.Uint64n(5000)), lo, lo+(15-lo)*rng.Float64())
		sameHistogram(t, "observe", h, ref)
	}

	type span struct {
		n      int
		lo, hi float64
	}
	pairs := map[string][2]span{
		"empty into full": {{0, 0, 0}, {500, 0, 15}},
		"disjoint":        {{500, 0, 3}, {500, 9, 15}},
		"overlapping":     {{500, 0, 8}, {500, 5, 15}},
		"nested":          {{500, 0, 15}, {500, 6, 7}},
		"same octave":     {{50, 2, 2.1}, {50, 2, 2.1}},
	}
	for name, p := range pairs {
		for _, swap := range []bool{false, true} {
			a, refA := fill(p[0].n, p[0].lo, p[0].hi)
			b, refB := fill(p[1].n, p[1].lo, p[1].hi)
			if swap {
				a, b, refA, refB = b, a, refB, refA
			}
			what := fmt.Sprintf("%s, swapped=%v", name, swap)
			a.Merge(b)
			refA.Merge(refB)
			sameHistogram(t, what, a, refA)
			sameHistogram(t, what+", merged-from side", b, refB)

			// And folded into a fresh one, as ShardEngine.CloneLatency does.
			var into Histogram
			var refInto fixedHistogram
			into.Merge(a)
			into.Merge(b)
			refInto.Merge(refA)
			refInto.Merge(refB)
			sameHistogram(t, what+", into fresh", &into, &refInto)
		}
	}
}

// TestHistogramStorage: a histogram holds no buckets before its first
// sample and one octave's worth (128 bytes) while its samples share an
// octave; storage grows to the whole octaves between min and max.
func TestHistogramStorage(t *testing.T) {
	bytes := func(h *Histogram) int { return cap(h.buckets) * 8 }
	var h Histogram
	if h.buckets != nil {
		t.Fatal("a new histogram holds buckets")
	}
	var empty Histogram
	h.Merge(&empty)
	if h.buckets != nil {
		t.Error("merging an empty histogram allocated buckets")
	}
	for _, v := range []float64{5, 6, 7.5, 4} {
		h.Observe(v)
	}
	if got := bytes(&h); got != 128 {
		t.Errorf("samples within one octave hold %d bytes of buckets, want 128", got)
	}
	h.Observe(20) // octave 4: octaves 2, 3 and 4
	if got := bytes(&h); got != 3*128 {
		t.Errorf("samples over three octaves hold %d bytes, want %d", got, 3*128)
	}
	h.Observe(0.5) // octave 0
	if got := bytes(&h); got != 5*128 {
		t.Errorf("samples over five octaves hold %d bytes, want %d", got, 5*128)
	}
	h.Reset()
	if h.buckets != nil {
		t.Error("Reset kept the buckets")
	}
}

// TestHistogramDecodeRejectsLayouts: a decoded histogram's storage
// starts at octave 0 or above, ends within the last, comes in whole
// octaves, and its buckets add up to its count; anything else is an
// error, not a histogram Merge would index out of range. An observed
// histogram decodes from its encoding unchanged.
func TestHistogramDecodeRejectsLayouts(t *testing.T) {
	octave := `[1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]`
	for _, b := range []string{
		`{"lo":-1,"n":1,"b":` + octave + `}`,
		`{"lo":64,"n":1,"b":` + octave + `}`,
		`{"n":1,"b":[1,0,0]}`,
		`{"n":2,"b":` + octave + `}`,
		`{"n":1,"b":[18446744073709551615,2,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}`,
	} {
		var h Histogram
		if err := json.Unmarshal([]byte(b), &h); err == nil {
			t.Errorf("%s decoded to %+v", b, h)
		}
	}
	var h Histogram
	if err := json.Unmarshal([]byte(`{"lo":63,"n":1,"b":`+octave+`}`), &h); err != nil || h.Count() != 1 {
		t.Errorf("the last octave: %+v, %v", h, err)
	}
	var src, back Histogram
	for _, v := range []float64{0.3, 3, 17, 1e4} {
		src.Observe(v)
	}
	b, err := json.Marshal(&src)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &back); err != nil || !reflect.DeepEqual(back, src) {
		t.Errorf("%+v encodes to %s, which decodes to %+v (%v)", src, b, back, err)
	}
}

// FuzzHistogramDecode: decoding any bytes never panics, a histogram it
// accepts survives Merge, Quantile and re-encoding, and an encoding
// decodes to an equal histogram, its mean to the bit.
func FuzzHistogramDecode(f *testing.F) {
	var h, empty Histogram
	for _, v := range []float64{0.3, 3, 17, 1e4, 1e300} {
		h.Observe(v)
	}
	for _, src := range []*Histogram{&h, &empty} {
		b, err := json.Marshal(src)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"lo":-1,"n":1,"sum":1,"min":1,"max":1,"b":[1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}`))
	f.Add([]byte(`{"lo":63,"n":2,"sum":1,"min":1,"max":1,"b":[1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}`))
	f.Add([]byte(`{"n":1,"sum":-0,"min":-0,"max":-0,"b":[1,0,0]}`))
	f.Add([]byte(`{"n":1,"b":[18446744073709551615,2,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		var h Histogram
		if json.Unmarshal(b, &h) != nil {
			return
		}
		var m Histogram
		m.Merge(&h)
		m.Merge(&h)
		for _, q := range []float64{0, 0.01, 0.5, 0.99, 1} {
			h.Quantile(q)
			m.Quantile(q)
		}
		enc, err := json.Marshal(&h)
		if err != nil {
			t.Fatalf("re-encoding %s: %v", b, err)
		}
		var back Histogram
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("decoding the encoding %s: %v", enc, err)
		}
		if back.lo != h.lo || back.count != h.count || back.min != h.min || back.max != h.max ||
			math.Float64bits(back.Mean()) != math.Float64bits(h.Mean()) || !slices.Equal(back.buckets, h.buckets) {
			t.Errorf("%s decodes to %+v, its re-encoding %s to %+v", b, h, enc, back)
		}
	})
}
