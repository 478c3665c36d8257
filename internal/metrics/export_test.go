package metrics

import (
	"fmt"
	"strings"
	"testing"
)

type exportedStats struct {
	Hits    uint64 `metric:"x_hits_total"`
	Depth   int    `metric:"x_depth"`
	Small   uint16 `metric:"x_small_total"`
	Private uint64 // untagged: not a series
	Note    string
}

func TestExporterPublishesTaggedFields(t *testing.T) {
	r := NewRegistry()
	e := NewExporter(r, exportedStats{})
	e.Publish(&exportedStats{Hits: 7, Depth: -3, Small: 9, Private: 99, Note: "n"})
	want := []Point{
		{Name: "x_depth", Kind: "gauge", Value: -3},
		{Name: "x_hits_total", Kind: "counter", Value: 7},
		{Name: "x_small_total", Kind: "counter", Value: 9},
	}
	got := r.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("snapshot = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i].Name != want[i].Name || got[i].Kind != want[i].Kind || got[i].Value != want[i].Value {
			t.Errorf("point %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// A publication replaces the last one; it does not add to it.
	e.Publish(&exportedStats{Hits: 8, Depth: 1})
	if c, g := r.Counter("x_hits_total").Load(), r.Gauge("x_depth").Load(); c != 8 || g != 1 {
		t.Errorf("after a second Publish: hits = %d, depth = %d, want 8, 1", c, g)
	}
	// Built from a pointer, the exporter is the same.
	NewExporter(r, &exportedStats{}).Publish(&exportedStats{Hits: 9})
	if c := r.Counter("x_hits_total").Load(); c != 9 {
		t.Errorf("exporter built from a pointer published hits = %d, want 9", c)
	}
}

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
			t.Errorf("panic = %v, want one mentioning %q", r, want)
		}
	}()
	fn()
}

func TestExporterTypeMismatchPanics(t *testing.T) {
	e := NewExporter(NewRegistry(), exportedStats{})
	type other struct {
		Hits uint64 `metric:"x_hits_total"`
	}
	mustPanic(t, "published a", func() { e.Publish(&other{}) })
	mustPanic(t, "published a", func() { e.Publish(exportedStats{}) }) // a value, not a pointer
	mustPanic(t, "not an integer", func() {
		NewExporter(NewRegistry(), struct {
			Rate float64 `metric:"x_rate"`
		}{})
	})
}

func TestExporterPublishAllocs(t *testing.T) {
	e := NewExporter(NewRegistry(), exportedStats{})
	st := &exportedStats{Hits: 1}
	if n := testing.AllocsPerRun(100, func() {
		st.Hits++
		e.Publish(st)
	}); n != 0 {
		t.Errorf("Publish allocates %v objects a call, want 0", n)
	}
}

// Reset discards all samples.
func (h *Histogram) Reset() { *h = Histogram{} }

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.T) }

// Count returns the number of samples (0 on nil).
func (h *Hist) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.count
}
