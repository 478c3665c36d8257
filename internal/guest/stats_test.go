package guest

import (
	"testing"

	"potemkin/internal/netsim"
)

// TestStopRetiresCounters: a stopped instance's final counters are kept
// by the Instruments it shares, once, so a farm's guest totals do not
// fall when a guest is recycled.
func TestStopRetiresCounters(t *testing.T) {
	r := newRecycleRig(t)
	ip := netsim.MustParseAddr("10.5.0.9")
	a := r.guest(t, ip, WindowsXP())
	a.Start()
	a.HandlePacket(r.k.Now(), netsim.TCPSyn(netsim.MustParseAddr("200.1.1.1"), ip, 40000, 445, 1))
	want := a.Stats()
	if want.PacketsIn != 1 || want.PagesDirty == 0 {
		t.Fatalf("guest did nothing: %+v", want)
	}
	if got := r.shared.Retired; got != (Stats{}) {
		t.Errorf("retired before any Stop: %+v", got)
	}
	a.Stop()
	a.Stop() // idempotent: folded once
	if got := r.shared.Retired; got != want {
		t.Errorf("retired = %+v, want the stopped guest's %+v", got, want)
	}

	b := r.guest(t, ip+1, WindowsXP())
	b.HandlePacket(r.k.Now(), netsim.TCPSyn(netsim.MustParseAddr("200.1.1.1"), ip+1, 40000, 445, 1))
	b.Stop()
	if got := r.shared.Retired.PacketsIn; got != 2 {
		t.Errorf("retired PacketsIn after a second guest = %d, want 2", got)
	}
}
