package gateway

import (
	"testing"
	"time"

	"potemkin/internal/sim"
)

// conservation checks the binding ledger: everything ever created is
// either still live or was recycled.
func conservation(t *testing.T, g *Gateway) {
	t.Helper()
	st := g.Stats()
	if st.BindingsCreated != uint64(g.NumBindings())+st.BindingsRecycled {
		t.Errorf("ledger unbalanced: created=%d live=%d recycled=%d",
			st.BindingsCreated, g.NumBindings(), st.BindingsRecycled)
	}
}

func TestSpawnRetrySucceedsAndKeepsQueue(t *testing.T) {
	g, fb, k := newTestGateway(t, func(c *Config) { c.SpawnRetryBudget = 2 })
	fb.failNext = true
	g.HandleInbound(k.Now(), syn(ext(0), mon(0)))
	// A second packet queues while the first attempt is failing.
	g.HandleInbound(k.Now(), syn(ext(1), mon(0)))
	k.Run()
	st := g.Stats()
	if st.SpawnRetries != 1 {
		t.Errorf("SpawnRetries = %d, want 1", st.SpawnRetries)
	}
	if st.SpawnFailures != 0 {
		t.Errorf("SpawnFailures = %d, want 0 (retry succeeded)", st.SpawnFailures)
	}
	if b := g.Binding(mon(0)); b == nil || b.State != BindingActive {
		t.Fatal("binding not active after successful retry")
	}
	// The pending queue survived the failed first attempt.
	if len(fb.spawned) != 1 || len(fb.spawned[0].delivered) != 2 {
		t.Errorf("queued packets lost across retry: spawned=%d", len(fb.spawned))
	}
	conservation(t, g)
}

func TestSpawnRetryExhaustionCountsFailureOnce(t *testing.T) {
	g, fb, k := newTestGateway(t, func(c *Config) { c.SpawnRetryBudget = 3 })
	fb.failN = 10 // more failures than budget
	g.HandleInbound(k.Now(), syn(ext(0), mon(0)))
	k.Run()
	st := g.Stats()
	if st.SpawnRetries != 3 {
		t.Errorf("SpawnRetries = %d, want 3 (budget)", st.SpawnRetries)
	}
	if st.SpawnFailures != 1 {
		t.Errorf("SpawnFailures = %d, want exactly 1 per request", st.SpawnFailures)
	}
	if fb.requests != 4 {
		t.Errorf("backend requests = %d, want 1 + 3 retries", fb.requests)
	}
	if g.NumBindings() != 0 {
		t.Error("exhausted binding not removed")
	}
	conservation(t, g)
	// The address re-binds cleanly once the backend heals.
	fb.failN = 0
	g.HandleInbound(k.Now(), syn(ext(0), mon(0)))
	k.Run()
	if b := g.Binding(mon(0)); b == nil || b.State != BindingActive {
		t.Error("re-binding after exhausted retries broken")
	}
}

func TestRetryBackoffSpacing(t *testing.T) {
	g, fb, k := newTestGateway(t, func(c *Config) { c.SpawnRetryBudget = 2 })
	fb.failN = 10
	fb.delay = 0 // isolate the backoff from the clone delay
	g.HandleInbound(k.Now(), syn(ext(0), mon(0)))
	k.Run()
	// Attempts at 0, +100ms, +100+200ms; the final failure lands at 300ms.
	if got, want := k.Now(), sim.Start.Add(3*spawnRetryBackoff); got != want {
		t.Errorf("final failure at %v, want %v (exponential backoff)", got, want)
	}
	if g.Stats().SpawnFailures != 1 {
		t.Errorf("SpawnFailures = %d", g.Stats().SpawnFailures)
	}
}

func TestRecycleDuringRetryBackoffStopsRetry(t *testing.T) {
	g, fb, k := newTestGateway(t, func(c *Config) { c.SpawnRetryBudget = 2 })
	fb.failNext = true
	g.HandleInbound(k.Now(), syn(ext(0), mon(0)))
	k.RunFor(fb.delay + spawnRetryBackoff/2) // first attempt failed, retry pending
	if g.Stats().SpawnRetries != 1 {
		t.Fatalf("SpawnRetries = %d, want 1", g.Stats().SpawnRetries)
	}
	g.RecycleAll(k.Now())
	k.Run()
	// The backoff timer fired against a recycled binding: no new request,
	// no resurrected binding.
	if fb.requests != 1 {
		t.Errorf("backend requests = %d, want 1 (retry cancelled)", fb.requests)
	}
	if g.NumBindings() != 0 {
		t.Error("retry resurrected a recycled binding")
	}
	conservation(t, g)
}

func TestShedModeOnFarmFull(t *testing.T) {
	g, fb, k := newTestGateway(t, func(c *Config) {
		c.ShedOnFull = 2 * time.Second
	})
	fb.failNext = true
	fb.failErr = ErrBackendFull
	g.HandleInbound(k.Now(), syn(ext(0), mon(0)))
	k.Run() // spawn fails with farm-full; shed window opens
	if g.Stats().SpawnFailures != 1 {
		t.Fatalf("SpawnFailures = %d", g.Stats().SpawnFailures)
	}
	// New addresses are shed, cheaply, while the window is open.
	for i := 1; i <= 3; i++ {
		g.HandleInbound(k.Now(), syn(ext(i), mon(i)))
	}
	if got := g.Stats().BindingsShed; got != 3 {
		t.Errorf("BindingsShed = %d, want 3", got)
	}
	if g.NumBindings() != 0 || fb.requests != 1 {
		t.Error("shed bindings still hit the backend")
	}
	// After the window, binding works again.
	k.RunUntil(sim.Start.Add(3 * time.Second))
	g.HandleInbound(k.Now(), syn(ext(9), mon(9)))
	k.Run()
	if b := g.Binding(mon(9)); b == nil || b.State != BindingActive {
		t.Error("binding still refused after shed window closed")
	}
	conservation(t, g)
}

func TestShedRequiresFarmFullError(t *testing.T) {
	// A non-capacity failure must not open the shed window.
	g, fb, k := newTestGateway(t, func(c *Config) { c.ShedOnFull = 2 * time.Second })
	fb.failNext = true // fails with ErrFake
	g.HandleInbound(k.Now(), syn(ext(0), mon(0)))
	k.Run()
	g.HandleInbound(k.Now(), syn(ext(1), mon(1)))
	k.Run()
	if g.Stats().BindingsShed != 0 {
		t.Errorf("BindingsShed = %d after a non-capacity failure", g.Stats().BindingsShed)
	}
	if b := g.Binding(mon(1)); b == nil || b.State != BindingActive {
		t.Error("binding refused without a farm-full signal")
	}
}

func TestRecycleBindingOnBackendLoss(t *testing.T) {
	g, fb, k := newTestGateway(t, nil)
	g.HandleInbound(k.Now(), syn(ext(0), mon(0)))
	k.Run()
	if !g.RecycleBinding(k.Now(), mon(0), "server crash: host0") {
		t.Fatal("RecycleBinding missed a live binding")
	}
	st := g.Stats()
	if st.BackendLost != 1 || st.BindingsRecycled != 1 {
		t.Errorf("BackendLost = %d, BindingsRecycled = %d", st.BackendLost, st.BindingsRecycled)
	}
	if !fb.spawned[0].destroyed {
		t.Error("lost VM not destroyed")
	}
	if g.NumBindings() != 0 {
		t.Error("lost binding survived")
	}
	// Unknown address reports false and changes nothing.
	if g.RecycleBinding(k.Now(), mon(5), "x") {
		t.Error("RecycleBinding invented a binding")
	}
	if g.Stats().BackendLost != 1 {
		t.Error("BackendLost counted a miss")
	}
	// The address re-binds: the crash freed it for reuse.
	g.HandleInbound(k.Now(), syn(ext(0), mon(0)))
	k.Run()
	if b := g.Binding(mon(0)); b == nil || b.State != BindingActive {
		t.Error("re-binding after backend loss broken")
	}
	conservation(t, g)
}

func TestRecycleBindingWhilePendingDropsQueue(t *testing.T) {
	g, _, k := newTestGateway(t, nil)
	g.HandleInbound(k.Now(), syn(ext(0), mon(0)))
	g.HandleInbound(k.Now(), syn(ext(1), mon(0))) // queued behind the clone
	if !g.RecycleBinding(k.Now(), mon(0), "server crash: host0") {
		t.Fatal("RecycleBinding missed a pending binding")
	}
	if g.Stats().PendingDropped != 2 {
		t.Errorf("PendingDropped = %d, want 2", g.Stats().PendingDropped)
	}
	k.Run() // late clone completion must not resurrect anything
	if g.NumBindings() != 0 {
		t.Error("late clone resurrected a crashed binding")
	}
	conservation(t, g)
}

func TestFailureEventLog(t *testing.T) {
	var kinds []EventKind
	g, fb, k := newTestGateway(t, func(c *Config) {
		c.SpawnRetryBudget = 1
		c.ShedOnFull = time.Second
		c.EventSink = func(ev Event) { kinds = append(kinds, ev.Kind) }
	})
	fb.failN = 2
	fb.failErr = ErrBackendFull
	g.HandleInbound(k.Now(), syn(ext(0), mon(0)))
	k.Run()
	g.HandleInbound(k.Now(), syn(ext(1), mon(1))) // shed
	g.HandleInbound(k.Now(), syn(ext(2), mon(2))) // shed
	want := map[EventKind]int{EvBound: 1, EvSpawnRetry: 1, EvSpawnFail: 1, EvShed: 2}
	got := map[EventKind]int{}
	for _, kind := range kinds {
		got[kind]++
	}
	for kind, n := range want {
		if got[kind] != n {
			t.Errorf("event %q logged %d times, want %d (log: %v)", kind, got[kind], n, kinds)
		}
	}
}
