package gateway

import "testing"

// TestEgressAndLiveBindingCounts: the leak rate's numerator and
// denominator and the live-binding gauge are Stats fields like any
// other (they were registry-only instruments once).
func TestEgressAndLiveBindingCounts(t *testing.T) {
	g, _, k := newTestGateway(t, func(c *Config) { c.Policy = PolicyReflectSource })
	g.HandleInbound(k.Now(), syn(ext(0), mon(0)))
	g.HandleInbound(k.Now(), syn(ext(0), mon(1)))
	k.Run()
	// A reply to the scanner leaves; a scan of a stranger is an attempt
	// the policy drops; farm-internal traffic is no attempt at all.
	g.HandleOutbound(k.Now(), syn(mon(0), ext(0)))
	g.HandleOutbound(k.Now(), syn(mon(0), ext(9)))
	g.HandleOutbound(k.Now(), syn(mon(0), mon(1)))
	st := g.Stats()
	if st.EgressAttempted != 2 || st.EgressPermitted != 1 {
		t.Errorf("egress attempted/permitted = %d/%d, want 2/1", st.EgressAttempted, st.EgressPermitted)
	}
	if st.BindingsLive != 2 {
		t.Errorf("BindingsLive = %d, want 2", st.BindingsLive)
	}
	g.RecycleAll(k.Now())
	if st := g.Stats(); st.BindingsLive != 0 || st.BindingsRecycled != 2 {
		t.Errorf("after RecycleAll: live = %d, recycled = %d, want 0, 2", st.BindingsLive, st.BindingsRecycled)
	}
}
