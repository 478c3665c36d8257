package metrics

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"potemkin/internal/sim"
)

func TestHistogramExactStats(t *testing.T) {
	var h Histogram
	for _, v := range []float64{1, 2, 3, 4, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Sum() != 15 {
		t.Errorf("Sum = %v", h.Sum())
	}
	if h.Mean() != 3 {
		t.Errorf("Mean = %v", h.Mean())
	}
	if h.Min() != 1 || h.Max() != 5 {
		t.Errorf("Min/Max = %v/%v", h.Min(), h.Max())
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Error("empty histogram should report zeros")
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	var h Histogram
	r := sim.NewRNG(1)
	var exact []float64
	for i := 0; i < 50000; i++ {
		v := r.Exp(1000)
		exact = append(exact, v)
		h.Observe(v)
	}
	sort.Float64s(exact)
	for _, q := range []float64{0.1, 0.5, 0.9, 0.95, 0.99} {
		want := exact[int(q*float64(len(exact)))]
		got := h.Quantile(q)
		if rel := math.Abs(got-want) / want; rel > 0.05 {
			t.Errorf("q%.2f = %v, want ~%v (rel err %.3f)", q, got, want, rel)
		}
	}
}

func TestHistogramQuantileExtremes(t *testing.T) {
	var h Histogram
	h.Observe(10)
	h.Observe(1e6)
	if h.Quantile(0) != 10 {
		t.Errorf("q0 = %v", h.Quantile(0))
	}
	if h.Quantile(1) != 1e6 {
		t.Errorf("q1 = %v", h.Quantile(1))
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	if h.Min() != 0 || h.Max() != 0 {
		t.Errorf("negative not clamped: min=%v max=%v", h.Min(), h.Max())
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for i := 1; i <= 100; i++ {
		a.Observe(float64(i))
	}
	for i := 101; i <= 200; i++ {
		b.Observe(float64(i))
	}
	a.Merge(&b)
	if a.Count() != 200 {
		t.Errorf("Count = %d", a.Count())
	}
	if a.Min() != 1 || a.Max() != 200 {
		t.Errorf("Min/Max = %v/%v", a.Min(), a.Max())
	}
	med := a.Quantile(0.5)
	if med < 90 || med > 110 {
		t.Errorf("median = %v, want ~100", med)
	}
}

func TestHistogramMergeEmpty(t *testing.T) {
	var a, b Histogram
	a.Observe(7)
	a.Merge(&b) // no-op
	if a.Count() != 1 {
		t.Errorf("Count = %d", a.Count())
	}
	b.Merge(&a)
	if b.Count() != 1 || b.Min() != 7 {
		t.Errorf("merge into empty: count=%d min=%v", b.Count(), b.Min())
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Observe(3)
	h.Reset()
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Error("Reset did not clear")
	}
}

// Property: quantile is monotone in q and bounded by [min, max].
func TestHistogramQuantileMonotone(t *testing.T) {
	err := quick.Check(func(vals []float64) bool {
		var h Histogram
		for _, v := range vals {
			h.Observe(math.Abs(v))
		}
		prev := -1.0
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := h.Quantile(q)
			if v < prev || v < h.Min() || v > h.Max() {
				return false
			}
			prev = v
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

func TestSeriesBasics(t *testing.T) {
	var s Series
	s.Add(0, 10)
	s.Add(1, 30)
	s.Add(2, 20)
	if s.Len() != 3 {
		t.Errorf("Len=%d", s.Len())
	}
	if s.Quantile(0.5) != 20 {
		t.Errorf("median = %v", s.Quantile(0.5))
	}
}

func TestSeriesEmpty(t *testing.T) {
	var s Series
	if s.Len() != 0 || s.Quantile(0.9) != 0 {
		t.Error("empty series should report zeros")
	}
}

func TestSeriesDownsample(t *testing.T) {
	var s Series
	for i := 0; i < 1000; i++ {
		s.Add(float64(i), float64(i*2))
	}
	d := s.Downsample(10)
	if d.Len() != 10 {
		t.Fatalf("Len = %d", d.Len())
	}
	if d.T[0] != 0 {
		t.Errorf("first t = %v", d.T[0])
	}
	small := s.Downsample(5000)
	if small.Len() != 1000 {
		t.Errorf("no-op downsample changed length: %d", small.Len())
	}
}

func TestTableRender(t *testing.T) {
	tab := NewTable("Demo", "name", "count", "ratio")
	tab.AddRow("alpha", 10, 0.5)
	tab.AddRow("betabetabeta", 20000, 1234.5678)
	out := tab.String()
	if !strings.Contains(out, "Demo") || !strings.Contains(out, "betabetabeta") {
		t.Errorf("render missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(out, "0.500") {
		t.Errorf("float formatting: %s", out)
	}
}

func TestTableCSV(t *testing.T) {
	tab := NewTable("x", "a", "b")
	tab.AddRow("has,comma", `has"quote`)
	tab.AddRow(1, 2)
	var sb strings.Builder
	if err := tab.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := "a,b\n\"has,comma\",\"has\"\"quote\"\n1,2\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

func TestSeriesTable(t *testing.T) {
	a := &Series{Name: "live"}
	a.Add(0, 1)
	a.Add(2, 3)
	b := &Series{Name: "peak"}
	b.Add(0, 5)
	b.Add(1, 6)
	tab := SeriesTable("joined", a, b)
	if tab.NumRows() != 3 {
		t.Fatalf("rows = %d\n%s", tab.NumRows(), tab)
	}
	// t=1 has no value for "live".
	row := tab.Row(1)
	if row[0] != "1" || row[1] != "" || row[2] != "6" {
		t.Errorf("row 1 = %v", row)
	}
}

// Property: merging histograms built from any split of a value set is
// indistinguishable from observing the whole set into one histogram —
// same count, sum, min, max, and every quantile. This is the contract
// Snapshot() relies on when it merges per-server clone histograms.
func TestHistogramMergeEqualsUnionProperty(t *testing.T) {
	rng := sim.NewKernel(99).Stream("merge-prop")
	for iter := 0; iter < 200; iter++ {
		n := int(rng.Uint64n(200)) + 1
		cut := int(rng.Uint64n(uint64(n) + 1))
		var a, b, union Histogram
		for i := 0; i < n; i++ {
			// Span many octaves, including zero and sub-1 values.
			v := rng.Float64() * math.Pow(10, float64(rng.Uint64n(7))-2)
			union.Observe(v)
			if i < cut {
				a.Observe(v)
			} else {
				b.Observe(v)
			}
		}
		a.Merge(&b)
		// Sum is compared with a relative tolerance: float addition is
		// not associative, and the union observes in a different order.
		sumClose := math.Abs(a.Sum()-union.Sum()) <= 1e-12*math.Abs(union.Sum())
		if a.Count() != union.Count() || !sumClose ||
			a.Min() != union.Min() || a.Max() != union.Max() {
			t.Fatalf("iter %d (n=%d cut=%d): merged count/sum/min/max %d/%v/%v/%v, union %d/%v/%v/%v",
				iter, n, cut, a.Count(), a.Sum(), a.Min(), a.Max(),
				union.Count(), union.Sum(), union.Min(), union.Max())
		}
		for q := 0.0; q <= 1.0; q += 0.05 {
			if got, want := a.Quantile(q), union.Quantile(q); got != want {
				t.Fatalf("iter %d: Quantile(%.2f) = %v after merge, %v for union", iter, q, got, want)
			}
		}
	}
}

// bucketIndexLog is the formula bucketIndex replaced, kept as the
// oracle: octave by math.Log2, sub-bucket by division.
func bucketIndexLog(v float64) int {
	if v < 1 {
		return 0
	}
	exp := math.Floor(math.Log2(v))
	base := math.Exp2(exp)
	sub := int((v - base) / base * subBuckets)
	if sub >= subBuckets {
		sub = subBuckets - 1
	}
	idx := int(exp)*subBuckets + sub
	if idx >= numBuckets {
		idx = numBuckets - 1
	}
	return idx
}

// TestBucketIndexMatchesLogFormula sweeps the domains the histograms
// see — counts, nanoseconds rendered as milliseconds, and floats across
// every octave and past the last — and requires the bit formula to file
// each value exactly where the logarithm did.
func TestBucketIndexMatchesLogFormula(t *testing.T) {
	check := func(v float64) {
		if got, want := bucketIndex(v), bucketIndexLog(v); got != want {
			t.Fatalf("bucketIndex(%v) = %d, log formula %d", v, got, want)
		}
	}
	n := 1 << 24
	if testing.Short() {
		n = 1 << 18
	}
	for i := 0; i <= n>>2; i++ {
		check(float64(i))
	}
	for ns := 0; ns < n; ns++ {
		check(float64(ns) / 1e6)
	}
	rng := sim.NewRNG(1)
	for i := 0; i < n; i++ {
		octave := rng.Uint64n(70) // the last bucket starts at 2^63
		check(math.Float64frombits((1023+octave)<<52 | rng.Uint64()>>12))
	}
}

// TestBucketIndexCorrections pins the two inputs on which the bit
// formula and the logarithm differ, both in the bit formula's favour.
func TestBucketIndexCorrections(t *testing.T) {
	t.Run("one ulp below a power of two", func(t *testing.T) {
		// Log2 rounds 2^k - ulp up to k, which filed the value under
		// 2^k's first sub-bucket: a bucket whose lower bound it is below.
		for k := 1; k < 64; k++ {
			pow := math.Exp2(float64(k))
			if got, want := bucketIndex(math.Nextafter(pow, 0)), bucketIndex(pow)-1; got != want {
				t.Errorf("bucketIndex(2^%d - ulp) = %d, want %d", k, got, want)
			}
		}
		if v := math.Nextafter(1024, 0); bucketIndexLog(v) != bucketIndex(1024) {
			t.Errorf("log formula files %v under %d; the correction is no longer one", v, bucketIndexLog(v))
		}
	})
	t.Run("+Inf", func(t *testing.T) {
		// int(Floor(Log2(+Inf))) is not a bucket; Observe indexed with it.
		last := numBuckets - 1
		if got := bucketIndex(math.Inf(1)); got != last {
			t.Fatalf("bucketIndex(+Inf) = %d, want the last bucket %d", got, last)
		}
		var h Histogram
		h.Observe(math.Inf(1))
		NewRegistry().Hist("inf").Observe(math.Inf(1))
		if h.Count() != 1 {
			t.Fatalf("Count = %d after Observe(+Inf)", h.Count())
		}
	})
}
