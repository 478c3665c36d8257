package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// The traced run's spans come from the benchmark's own files, around
// the calls into each layer. The tracer belongs to one goroutine — the
// one that replays, which is also the one the simulation calls back on —
// so it needs no locks. Every span feeds the per-name totals; the first
// maxKeptSpans are also kept whole and written out at exit.

// spanID names a span kind; ids are dense so totals live in a slice.
type spanID int

// maxKeptSpans bounds the spans held in memory for the JSONL file. The
// totals the ledger reads cover every span regardless.
const maxKeptSpans = 200000

// spanRecord is one line of <workload>.spans.jsonl. Parent is the line
// index of the enclosing span, -1 at the root.
type spanRecord struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Iter    int    `json:"iter"`
}

// spanTotals accumulates one span kind.
type spanTotals struct {
	count uint64
	total time.Duration
	// self is total minus the part child spans cover.
	self time.Duration
}

type openSpan struct {
	id       spanID
	start    time.Duration
	children time.Duration
	kept     int // index into tracer.kept, -1 if past the cap
}

type tracer struct {
	epoch  time.Time
	names  []string
	totals []spanTotals
	stack  []openSpan
	kept   []spanRecord
	// iter tags kept spans with the pass that produced them.
	iter int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// id registers a span name.
func (t *tracer) id(name string) spanID {
	t.names = append(t.names, name)
	t.totals = append(t.totals, spanTotals{})
	return spanID(len(t.names) - 1)
}

func (t *tracer) begin(id spanID) {
	now := time.Since(t.epoch)
	kept := -1
	if len(t.kept) < maxKeptSpans {
		parent := -1
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].kept
		}
		kept = len(t.kept)
		t.kept = append(t.kept, spanRecord{Name: t.names[id], StartNS: int64(now), Parent: parent, Iter: t.iter})
	}
	t.stack = append(t.stack, openSpan{id: id, start: now, kept: kept})
}

func (t *tracer) end() {
	now := time.Since(t.epoch)
	n := len(t.stack) - 1
	s := t.stack[n]
	t.stack = t.stack[:n]
	d := now - s.start
	tot := &t.totals[s.id]
	tot.count++
	tot.total += d
	tot.self += d - s.children
	if n > 0 {
		t.stack[n-1].children += d
	}
	if s.kept >= 0 {
		t.kept[s.kept].EndNS = int64(now)
	}
}

// span wraps fn in a span.
func (t *tracer) span(id spanID, fn func()) {
	t.begin(id)
	fn()
	t.end()
}

// window is an instant on the tracer's goroutine from which totals are
// later differenced. Open one only while no span but the root is open.
type window struct {
	at   time.Duration
	base []spanTotals
}

func (t *tracer) mark() window {
	return window{at: time.Since(t.epoch), base: append([]spanTotals(nil), t.totals...)}
}

// since returns the wall time elapsed and each span kind's totals
// accumulated since w.
func (t *tracer) since(w window) (time.Duration, []spanTotals) {
	d := make([]spanTotals, len(t.totals))
	for i, now := range t.totals {
		var base spanTotals
		if i < len(w.base) {
			base = w.base[i]
		}
		d[i] = spanTotals{now.count - base.count, now.total - base.total, now.self - base.self}
	}
	return time.Since(t.epoch) - w.at, d
}

// write stores the kept spans as JSON lines in dir/<workload>.spans.jsonl.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.kept {
		if err := enc.Encode(&t.kept[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
