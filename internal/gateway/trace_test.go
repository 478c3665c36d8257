package gateway

import (
	"testing"
	"time"

	"potemkin/internal/trace"
)

// tracedGateway builds a test gateway with tracing on, collecting
// finished spans into the returned slice.
func tracedGateway(t *testing.T, mutate func(*Config)) (*Gateway, *fakeBackend, *[]trace.Record, func()) {
	t.Helper()
	var recs []trace.Record
	tr := trace.New(func(r trace.Record) { recs = append(recs, r) }, 0)
	g, fb, k := newTestGateway(t, func(cfg *Config) {
		cfg.Tracer = tr
		if mutate != nil {
			mutate(cfg)
		}
	})
	return g, fb, &recs, func() { k.Run() }
}

func findRec(recs []trace.Record, name string) *trace.Record {
	for i := range recs {
		if recs[i].Name == name {
			return &recs[i]
		}
	}
	return nil
}

// The binding lifecycle must come out as one trace: a root "binding"
// span with the forensic events folded on, a "spawn" child covering the
// clone request, and an "active" child from VM-live to recycle.
func TestTraceBindingLifecycle(t *testing.T) {
	g, _, recs, run := tracedGateway(t, nil)
	now := g.K.Now()
	g.HandleInbound(now, syn(ext(0), mon(0)))
	g.HandleInbound(now, syn(ext(1), mon(0))) // queues while pending
	if got := g.Stats().PendingQueued; got != 2 {
		t.Fatalf("PendingQueued mid-clone = %d, want 2", got)
	}
	run()
	if got := g.Stats().PendingQueued; got != 0 {
		t.Fatalf("PendingQueued after flush = %d, want 0", got)
	}
	g.RecycleAll(g.K.Now())

	spawn := findRec(*recs, "spawn")
	active := findRec(*recs, "active")
	root := findRec(*recs, "binding")
	if spawn == nil || active == nil || root == nil {
		t.Fatalf("missing spans, got %+v", *recs)
	}
	if spawn.Trace != root.Trace || active.Trace != root.Trace {
		t.Fatal("spans not in one trace")
	}
	if spawn.Parent != root.Span || active.Parent != root.Span {
		t.Fatal("spawn/active not children of the binding root")
	}
	if root.Attr("addr") != mon(0).String() || root.Attr("src") != ext(0).String() {
		t.Fatalf("root attrs wrong: %+v", root.Attrs)
	}
	if spawn.Attr("attempt") != "0" {
		t.Fatalf("spawn attempt attr = %q", spawn.Attr("attempt"))
	}
	// The event log folded onto the root span, in order.
	var kinds []string
	for _, ev := range root.Events {
		kinds = append(kinds, ev.Name)
	}
	want := []string{"bound", "active", "recycled"}
	if len(kinds) != len(want) {
		t.Fatalf("root events %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("root events %v, want %v", kinds, want)
		}
	}
	// Both queued packets observed pending-wait latency (the clone delay).
	pw := g.Cfg.Tracer.Stage("pending-wait")
	if pw == nil || pw.Count() != 2 {
		t.Fatalf("pending-wait samples = %v", pw)
	}
	if pw.Min() < 499 || pw.Max() > 501 { // 500 ms clone delay, in ms
		t.Fatalf("pending-wait range [%v, %v], want ~500", pw.Min(), pw.Max())
	}
	if g.Cfg.Tracer.OpenSpans() != 0 {
		t.Fatalf("open spans after recycle: %d", g.Cfg.Tracer.OpenSpans())
	}
}

// Each spawn attempt gets its own spawn span; failed attempts carry the
// error as a span event and the retry shows up on the root.
func TestTraceSpawnRetry(t *testing.T) {
	g, fb, recs, run := tracedGateway(t, func(cfg *Config) {
		cfg.SpawnRetryBudget = 2
	})
	fb.failN = 1
	g.HandleInbound(g.K.Now(), syn(ext(0), mon(0)))
	run()
	g.RecycleAll(g.K.Now())

	var spawns []*trace.Record
	for i := range *recs {
		if (*recs)[i].Name == "spawn" {
			spawns = append(spawns, &(*recs)[i])
		}
	}
	if len(spawns) != 2 {
		t.Fatalf("spawn spans = %d, want 2 (failed + retried)", len(spawns))
	}
	if spawns[0].Attr("attempt") != "0" || spawns[1].Attr("attempt") != "1" {
		t.Fatalf("attempt attrs: %q, %q", spawns[0].Attr("attempt"), spawns[1].Attr("attempt"))
	}
	if len(spawns[0].Events) == 0 || spawns[0].Events[0].Name != "spawn-error" {
		t.Fatalf("failed spawn missing error event: %+v", spawns[0].Events)
	}
	root := findRec(*recs, "binding")
	hasRetry := false
	for _, ev := range root.Events {
		if ev.Name == "spawn-retry" {
			hasRetry = true
		}
	}
	if !hasRetry {
		t.Fatalf("root missing spawn-retry event: %+v", root.Events)
	}
}

// A shed refusal has no binding to hang events off — it must surface as
// a standalone instant span so the trace subsumes the forensic log.
func TestTraceShedInstant(t *testing.T) {
	g, fb, recs, run := tracedGateway(t, func(cfg *Config) {
		cfg.ShedOnFull = time.Second
	})
	fb.failNext = true
	fb.failErr = ErrBackendFull
	g.HandleInbound(g.K.Now(), syn(ext(0), mon(0)))
	run()
	// Now inside the shed window: the next new address is refused.
	g.HandleInbound(g.K.Now(), syn(ext(1), mon(1)))
	shed := findRec(*recs, "shed")
	if shed == nil {
		t.Fatalf("no shed instant span, got %+v", *recs)
	}
	if shed.Attr("addr") != mon(1).String() {
		t.Fatalf("shed addr attr = %q", shed.Attr("addr"))
	}
	if shed.StartNS != shed.EndNS {
		t.Fatal("shed span not instant")
	}
}

// A binding recycled while its clone is in flight must still close its
// whole trace (abandoned spawn), and leave no context behind.
func TestTraceRecycleMidClone(t *testing.T) {
	g, _, recs, run := tracedGateway(t, nil)
	g.HandleInbound(g.K.Now(), syn(ext(0), mon(0)))
	if !g.RecycleBinding(g.K.Now(), mon(0), "crash") {
		t.Fatal("RecycleBinding found no binding")
	}
	run()
	spawn := findRec(*recs, "spawn")
	if spawn == nil {
		t.Fatal("no spawn span")
	}
	found := false
	for _, ev := range spawn.Events {
		if ev.Name == "abandoned" {
			found = true
		}
	}
	if !found {
		t.Fatalf("spawn span not marked abandoned: %+v", spawn.Events)
	}
	if g.Cfg.Tracer.OpenSpans() != 0 {
		t.Fatalf("open spans: %d", g.Cfg.Tracer.OpenSpans())
	}
	if g.Stats().PendingQueued != 0 {
		t.Fatalf("PendingQueued = %d", g.Stats().PendingQueued)
	}
}
