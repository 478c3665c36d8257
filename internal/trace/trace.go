// Package trace is a deterministic span tracer for the simulated
// honeyfarm: it records the full lifecycle of every binding — telescope
// arrival, gateway bind, farm placement, VMM flash clone, guest
// activity, recycle — as a tree of spans stamped with *simulated* time.
//
// Design constraints, in order:
//
//   - Determinism. Span and trace IDs are sequential counters, times
//     come from the sim clock, and attributes are ordered slices, so a
//     run with a fixed seed produces a byte-identical trace. Chaos
//     replays (internal/fault) can therefore be diffed span-by-span.
//   - Unique at every shard count. The tracer of shard s numbers both
//     its traces and its spans from s<<48 | 1, so the traces of several
//     simulation domains, concatenated, name every span and every
//     binding lifecycle once; shard 0 counts 1, 2, 3, ...
//   - Zero overhead when off. Every method is safe on a nil *Tracer and
//     a nil *Span and returns immediately; instrumentation sites pay one
//     nil check when tracing is disabled.
//
// The gateway records each forensic event as a span event too, but its
// event log stays a writer of its own (gateway.EventSink).
//
// Finished spans stream to a Sink in finish order; the JSONL exporter
// and the Chrome trace-event renderer live in export.go. Per-stage
// latencies (one metrics.Histogram per span name, plus explicit
// ObserveStage calls like the gateway's pending-queue wait) accumulate
// on the tracer for live snapshots and end-of-run tables.
package trace

import (
	"sort"
	"time"

	"potemkin/internal/metrics"
	"potemkin/internal/sim"
)

// TraceID groups the spans of one binding lifecycle.
type TraceID uint64

// SpanID identifies one span within a tracer.
type SpanID uint64

// Attr is one typed key/value annotation. Attrs are an ordered slice,
// not a map: insertion order is part of the deterministic output.
type Attr struct {
	K string `json:"k"`
	V string `json:"v"`
}

// SpanEvent is a point-in-time annotation on a span — the trace-side
// form of a gateway forensic-log record.
type SpanEvent struct {
	TNS    int64  `json:"t_ns"`
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
}

// Span is one timed operation. Fields are exported for exporters and
// tests; mutate only through the methods so nil-safety holds.
type Span struct {
	Trace  TraceID
	ID     SpanID
	Parent SpanID
	Name   string
	Start  sim.Time
	End    sim.Time
	Attrs  []Attr
	Events []SpanEvent

	tracer *Tracer
	prev   *Span // context-stack predecessor (see Tracer.Push)
	done   bool
}

// Sink consumes finished spans, already flattened to Records.
type Sink func(Record)

// Tracer mints spans and streams finished ones to its sink. The zero
// value is not usable; a nil *Tracer is the "tracing off" state and
// every method on it is a no-op.
type Tracer struct {
	sink Sink

	nextSpan  SpanID
	nextTrace TraceID

	// current maps an address (or any uint64 key) to the innermost live
	// span for it, so lower layers (farm, vmm) can parent their spans
	// under the caller's without API plumbing through every interface.
	current map[uint64]*Span

	// open tracks unfinished spans for FlushOpen.
	open map[SpanID]*Span

	stages map[string]*metrics.Histogram
}

// New returns shard's tracer, streaming finished spans to sink. Its
// trace and span IDs count up from shard<<48 | 1.
func New(sink Sink, shard int) *Tracer {
	first := uint64(shard)<<48 | 1
	return &Tracer{
		sink:      sink,
		nextSpan:  SpanID(first),
		nextTrace: TraceID(first),
		current:   make(map[uint64]*Span),
		open:      make(map[SpanID]*Span),
		stages:    make(map[string]*metrics.Histogram),
	}
}

func (t *Tracer) newSpan(now sim.Time, trace TraceID, parent SpanID, name string, attrs []Attr) *Span {
	s := &Span{
		Trace:  trace,
		ID:     t.nextSpan,
		Parent: parent,
		Name:   name,
		Start:  now,
		Attrs:  attrs,
		tracer: t,
	}
	t.nextSpan++
	t.open[s.ID] = s
	return s
}

// StartTrace begins a new root span under a fresh trace ID — one per
// binding lifecycle.
func (t *Tracer) StartTrace(now sim.Time, name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	id := t.nextTrace
	t.nextTrace++
	return t.newSpan(now, id, 0, name, attrs)
}

// StartChild begins a span under parent. A nil parent starts a new
// root trace instead, so instrumentation never has to special-case a
// missing context.
func (t *Tracer) StartChild(now sim.Time, parent *Span, name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	if parent == nil {
		return t.StartTrace(now, name, attrs...)
	}
	return t.newSpan(now, parent.Trace, parent.ID, name, attrs)
}

// Instant records a zero-duration standalone span (host crash/recover,
// shed refusals — events with no binding to hang off).
func (t *Tracer) Instant(now sim.Time, name string, attrs ...Attr) {
	if t == nil {
		return
	}
	s := t.StartTrace(now, name, attrs...)
	s.Finish(now)
}

// Push makes s the current span for key (an address, typically), so
// lower layers can find it with Current. Pop restores the predecessor.
func (t *Tracer) Push(key uint64, s *Span) {
	if t == nil || s == nil {
		return
	}
	s.prev = t.current[key]
	t.current[key] = s
}

// Pop removes s as the current span for key, restoring whatever was
// current when s was pushed. Popping a span that is not current is a
// no-op (the binding was torn down out from under the caller).
func (t *Tracer) Pop(key uint64, s *Span) {
	if t == nil || s == nil {
		return
	}
	if t.current[key] == s {
		if s.prev != nil {
			t.current[key] = s.prev
		} else {
			delete(t.current, key)
		}
	}
}

// Clear drops the entire context stack for key. Call when the object
// the key stands for is gone (a binding recycled): any spans still on
// the stack belong to a lifecycle that has ended, and leaving them
// would hand stale parents to the next lifecycle on the same key.
func (t *Tracer) Clear(key uint64) {
	if t == nil {
		return
	}
	delete(t.current, key)
}

// Current returns the innermost live span for key, or nil.
func (t *Tracer) Current(key uint64) *Span {
	if t == nil {
		return nil
	}
	return t.current[key]
}

// SetAttr appends an attribute.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Attr{K: k, V: v})
}

// Event appends a point-in-time event.
func (s *Span) Event(now sim.Time, name, detail string) {
	if s == nil {
		return
	}
	s.Events = append(s.Events, SpanEvent{TNS: int64(now), Name: name, Detail: detail})
}

// Done reports whether the span has finished. A nil span is done.
func (s *Span) Done() bool { return s == nil || s.done }

// Finish ends the span at now, records its duration into the tracer's
// stage histogram named after the span, and streams it to the sink.
// Finishing twice is a no-op, so teardown races (a binding recycled
// while its clone is in flight) stay simple at the call sites.
func (s *Span) Finish(now sim.Time) {
	if s == nil || s.done {
		return
	}
	s.done = true
	s.End = now
	t := s.tracer
	delete(t.open, s.ID)
	t.ObserveStage(s.Name, float64(now.Sub(s.Start))/float64(time.Millisecond))
	t.sink(s.Record())
}

// Record flattens the span for export.
func (s *Span) Record() Record {
	return Record{
		Trace:   uint64(s.Trace),
		Span:    uint64(s.ID),
		Parent:  uint64(s.Parent),
		Name:    s.Name,
		StartNS: int64(s.Start),
		EndNS:   int64(s.End),
		Attrs:   s.Attrs,
		Events:  s.Events,
	}
}

// ObserveStage records one latency sample (milliseconds) into the named
// stage histogram, creating it on first use. Span durations land here
// automatically via Finish; call sites add stages with no span of their
// own (per-packet pending-queue wait).
func (t *Tracer) ObserveStage(name string, ms float64) {
	if t == nil {
		return
	}
	h := t.stages[name]
	if h == nil {
		h = &metrics.Histogram{}
		t.stages[name] = h
	}
	h.Observe(ms)
}

// Stage returns the named stage histogram, or nil.
func (t *Tracer) Stage(name string) *metrics.Histogram {
	if t == nil {
		return nil
	}
	return t.stages[name]
}

// StageNames returns the recorded stage names, sorted (deterministic
// report order).
func (t *Tracer) StageNames() []string {
	if t == nil {
		return nil
	}
	names := make([]string, 0, len(t.stages))
	for n := range t.stages {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// OpenSpans returns the number of unfinished spans.
func (t *Tracer) OpenSpans() int {
	if t == nil {
		return 0
	}
	return len(t.open)
}

// FlushOpen finishes every unfinished span at now, in SpanID order
// (deterministic), marking each with an "unfinished" event. Call at end
// of run so bindings still live when the simulation stops appear in the
// trace.
func (t *Tracer) FlushOpen(now sim.Time) {
	if t == nil {
		return
	}
	ids := make([]SpanID, 0, len(t.open))
	for id := range t.open {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		s := t.open[id]
		s.Event(now, "unfinished", "")
		s.Finish(now)
	}
	t.current = make(map[uint64]*Span)
}
