package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"potemkin/internal/sim"
)

// A nil tracer (tracing off) must absorb every call without allocating
// or panicking — this is the zero-overhead-when-disabled contract the
// hot-path instrumentation relies on.
func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	s := tr.StartTrace(0, "binding")
	if s != nil {
		t.Fatal("nil tracer returned a span")
	}
	c := tr.StartChild(0, s, "clone")
	if c != nil {
		t.Fatal("nil tracer returned a child span")
	}
	s.SetAttr("k", "v")
	s.Event(1, "ev", "")
	s.Finish(2)
	if !s.Done() {
		t.Fatal("nil span must report done")
	}
	tr.Push(1, s)
	tr.Pop(1, s)
	tr.Clear(1)
	if tr.Current(1) != nil {
		t.Fatal("nil tracer has a current span")
	}
	tr.ObserveStage("x", 1)
	tr.Instant(0, "crash")
	tr.FlushOpen(0)
	if tr.Stage("x") != nil || tr.StageNames() != nil || tr.OpenSpans() != 0 {
		t.Fatal("nil tracer leaked state")
	}
}

func TestSpanTreeAndSinkOrder(t *testing.T) {
	var got []Record
	tr := New(func(r Record) { got = append(got, r) }, 0)

	root := tr.StartTrace(10, "binding", Attr{K: "addr", V: "10.5.0.1"})
	child := tr.StartChild(20, root, "spawn")
	grand := tr.StartChild(30, child, "clone")
	if root.Trace != child.Trace || child.Trace != grand.Trace {
		t.Fatalf("trace IDs diverge: %d %d %d", root.Trace, child.Trace, grand.Trace)
	}
	if child.Parent != root.ID || grand.Parent != child.ID {
		t.Fatal("parent links wrong")
	}
	root.Event(15, "queued", "1 pkt")

	grand.Finish(40)
	child.Finish(45)
	root.Finish(50)
	root.Finish(60) // double finish must be a no-op

	if len(got) != 3 {
		t.Fatalf("sink saw %d records, want 3", len(got))
	}
	// Finish order, not start order.
	if got[0].Name != "clone" || got[1].Name != "spawn" || got[2].Name != "binding" {
		t.Fatalf("finish order wrong: %s %s %s", got[0].Name, got[1].Name, got[2].Name)
	}
	if got[2].EndNS != 50 {
		t.Fatalf("double Finish moved End to %d", got[2].EndNS)
	}
	if got[2].Attr("addr") != "10.5.0.1" {
		t.Fatal("attr lost")
	}
	if len(got[2].Events) != 1 || got[2].Events[0].Name != "queued" {
		t.Fatal("event lost")
	}

	// Stage histograms: one sample per finished span, keyed by name.
	if n := tr.Stage("binding").Count(); n != 1 {
		t.Fatalf("binding stage count %d", n)
	}
	if got := tr.Stage("binding").Max(); got != 40.0/1e6 { // 40 ns as ms
		t.Fatalf("binding stage ms %v", got)
	}
	names := tr.StageNames()
	if len(names) != 3 || names[0] != "binding" || names[1] != "clone" || names[2] != "spawn" {
		t.Fatalf("stage names %v", names)
	}
}

// TestShardIDs: shard s numbers traces and spans from s<<48 | 1, so
// two domains' traces never share an ID.
func TestShardIDs(t *testing.T) {
	var got []Record
	tr := New(func(r Record) { got = append(got, r) }, 2)
	root := tr.StartTrace(0, "binding")
	child := tr.StartChild(1, root, "spawn")
	child.Finish(2)
	root.Finish(3)
	tr.Instant(4, "crash")
	const base = 2 << 48
	want := []Record{
		{Trace: base | 1, Span: base | 2, Parent: base | 1, Name: "spawn", StartNS: 1, EndNS: 2},
		{Trace: base | 1, Span: base | 1, Name: "binding", StartNS: 0, EndNS: 3},
		{Trace: base | 2, Span: base | 3, Name: "crash", StartNS: 4, EndNS: 4},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shard 2 records:\n got %+v\nwant %+v", got, want)
	}
}

func TestContextStack(t *testing.T) {
	tr := New(nil, 0)
	const key = 42
	root := tr.StartTrace(0, "binding")
	tr.Push(key, root)
	if tr.Current(key) != root {
		t.Fatal("current != root")
	}
	child := tr.StartChild(1, tr.Current(key), "spawn")
	tr.Push(key, child)
	if tr.Current(key) != child {
		t.Fatal("current != child")
	}
	tr.Pop(key, child)
	if tr.Current(key) != root {
		t.Fatal("pop did not restore root")
	}
	// Popping out of order (teardown race) must not corrupt the stack.
	tr.Pop(key, child)
	if tr.Current(key) != root {
		t.Fatal("stray pop removed root")
	}
	tr.Pop(key, root)
	if tr.Current(key) != nil {
		t.Fatal("stack not empty")
	}

	// Clear drops a whole stack at once (binding recycled with a spawn
	// span still pushed above its root).
	r2 := tr.StartTrace(5, "binding")
	c2 := tr.StartChild(6, r2, "spawn")
	tr.Push(key, r2)
	tr.Push(key, c2)
	tr.Clear(key)
	if tr.Current(key) != nil {
		t.Fatal("clear left context behind")
	}
}

func TestFlushOpenDeterministicOrder(t *testing.T) {
	var got []Record
	tr := New(func(r Record) { got = append(got, r) }, 0)
	a := tr.StartTrace(0, "a")
	b := tr.StartTrace(1, "b")
	c := tr.StartChild(2, b, "c")
	_ = a
	_ = c
	if tr.OpenSpans() != 3 {
		t.Fatalf("open %d", tr.OpenSpans())
	}
	tr.FlushOpen(100)
	if tr.OpenSpans() != 0 {
		t.Fatalf("open after flush %d", tr.OpenSpans())
	}
	if len(got) != 3 || got[0].Name != "a" || got[1].Name != "b" || got[2].Name != "c" {
		t.Fatalf("flush order wrong: %+v", got)
	}
	for _, r := range got {
		if len(r.Events) == 0 || r.Events[len(r.Events)-1].Name != "unfinished" {
			t.Fatalf("span %s missing unfinished marker", r.Name)
		}
	}
}

// Identical call sequences must produce byte-identical JSONL output —
// the property the chaos-replay diffing rests on.
func TestJSONLDeterministic(t *testing.T) {
	run := func() string {
		var buf bytes.Buffer
		tr := New(JSONL(&buf, func(err error) { t.Fatal(err) }), 0)
		root := tr.StartTrace(1000, "binding", Attr{K: "addr", V: "10.5.0.9"})
		tr.Instant(1500, "shed", Attr{K: "addr", V: "10.5.0.10"})
		clone := tr.StartChild(2000, root, "clone", Attr{K: "server", V: "s0"})
		clone.Event(2500, "retry", "fault")
		clone.Finish(3000)
		root.Finish(4000)
		return buf.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same calls, different JSONL:\n%s\n---\n%s", a, b)
	}
	recs, err := ReadAll(strings.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("round-trip %d records", len(recs))
	}
	if recs[2].Name != "binding" || recs[2].StartNS != 1000 || recs[2].EndNS != 4000 {
		t.Fatalf("round-trip mangled root: %+v", recs[2])
	}
}

func TestChromeExport(t *testing.T) {
	var jsonl, chrome bytes.Buffer
	cw := NewChromeWriter(&chrome)
	toJSONL := JSONL(&jsonl, nil)
	tr := New(func(r Record) { toJSONL(r); cw.Write(r) }, 0)
	root := tr.StartTrace(sim.Time(1*time.Millisecond), "binding", Attr{K: "addr", V: "10.5.0.1"})
	root.Event(sim.Time(1500*time.Microsecond), "active", "")
	root.Finish(sim.Time(2 * time.Millisecond))
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}

	var events []map[string]any
	if err := json.Unmarshal(chrome.Bytes(), &events); err != nil {
		t.Fatalf("chrome output is not a JSON array: %v\n%s", err, chrome.String())
	}
	// thread_name metadata + complete span + instant event.
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3:\n%s", len(events), chrome.String())
	}
	if events[0]["ph"] != "M" || events[1]["ph"] != "X" || events[2]["ph"] != "i" {
		t.Fatalf("phases wrong: %v %v %v", events[0]["ph"], events[1]["ph"], events[2]["ph"])
	}
	if events[1]["ts"].(float64) != 1000 || events[1]["dur"].(float64) != 1000 {
		t.Fatalf("ts/dur wrong: %v/%v", events[1]["ts"], events[1]["dur"])
	}

	// Converting the JSONL back through a second ChromeWriter must give
	// identical bytes: the file loses nothing inspect trace -chrome
	// renders.
	recs, err := ReadAll(bytes.NewReader(jsonl.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var chrome2 bytes.Buffer
	cw2 := NewChromeWriter(&chrome2)
	for _, r := range recs {
		cw2.Write(r)
	}
	if err := cw2.Close(); err != nil {
		t.Fatal(err)
	}
	if chrome.String() != chrome2.String() {
		t.Fatalf("JSONL->chrome conversion differs from direct export:\n%s\n---\n%s",
			chrome.String(), chrome2.String())
	}
}

func TestJSONMicrosFormatting(t *testing.T) {
	cases := map[int64]string{
		0:       "0.000",
		1:       "0.001",
		999:     "0.999",
		1000:    "1.000",
		1234567: "1234.567",
		-1500:   "-1.500",
	}
	for ns, want := range cases {
		b, err := jsonMicros(ns).MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != want {
			t.Errorf("jsonMicros(%d) = %s, want %s", ns, b, want)
		}
	}
}
