package farm

import (
	"testing"
	"time"
)

// TestGuestCumulativeSurvivesRecycling: a reclaimed guest's counters
// stay in GuestCumulative, and the LiveVMs gauge is spawns less
// reclaims.
func TestGuestCumulativeSurvivesRecycling(t *testing.T) {
	r := newRig(t, nil, nil)
	r.g.HandleInbound(r.k.Now(), probe(scanner, victim))
	r.g.HandleInbound(r.k.Now(), probe(scanner, victim+1))
	r.k.RunFor(2 * time.Second)
	before, _ := r.f.GuestCumulative()
	if before.PacketsIn != 2 {
		t.Fatalf("two served probes: cumulative %+v", before)
	}
	if st := r.f.Stats(); st.LiveVMs != 2 {
		t.Errorf("LiveVMs = %d, want 2", st.LiveVMs)
	}

	r.g.RecycleBinding(r.k.Now(), victim, "test")
	if got, _ := r.f.GuestCumulative(); got != before {
		t.Errorf("cumulative after one recycle = %+v, want the pre-recycle %+v", got, before)
	}
	if st := r.f.Stats(); st.LiveVMs != 1 || st.Reclaims != 1 {
		t.Errorf("LiveVMs = %d, Reclaims = %d, want 1, 1", st.LiveVMs, st.Reclaims)
	}

	// The recycled guest struct serves the next clone from zero.
	r.g.HandleInbound(r.k.Now(), probe(scanner, victim))
	r.k.RunFor(2 * time.Second)
	if got, _ := r.f.GuestCumulative(); got.PacketsIn != 3 {
		t.Errorf("cumulative PacketsIn after a rebind = %d, want 3", got.PacketsIn)
	}
}
