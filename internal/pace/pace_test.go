package pace

import (
	"testing"
	"time"
)

func TestScheduleArithmetic(t *testing.T) {
	if got := Schedule(0, 100); got != 0 {
		t.Fatalf("Schedule(0) = %v", got)
	}
	if got := Schedule(50, 100); got != 500*time.Millisecond {
		t.Fatalf("Schedule(50, 100/s) = %v, want 500ms", got)
	}
	if got := Schedule(10, 0); got != 0 {
		t.Fatalf("unpaced schedule should be 0, got %v", got)
	}
}

// Schedule must space events exactly like the legacy floodgen loop:
// start + n/rate seconds.
func TestScheduleMatchesLegacyFloodgenArithmetic(t *testing.T) {
	for _, n := range []uint64{1, 64, 1000, 999999} {
		rate := 48000.0
		legacy := time.Duration(float64(n) / rate * float64(time.Second))
		if got := Schedule(n, rate); got != legacy {
			t.Fatalf("Schedule(%d) = %v, legacy = %v", n, got, legacy)
		}
	}
}

func TestGovernorPacesTowardSchedule(t *testing.T) {
	start := time.Now()
	g := NewGovernor(start, 2000, 10)
	for i := 0; i < 100; i++ {
		g.Pace()
	}
	if g.Sent() != 100 {
		t.Fatalf("Sent = %d", g.Sent())
	}
	// 100 events at 2000/s schedule out to 50 ms; allow generous slack
	// below but insist the governor actually slept most of it.
	if el := time.Since(start); el < 40*time.Millisecond {
		t.Fatalf("governor finished in %v, schedule says >= ~50ms", el)
	}
}

// An unpaced governor never sleeps, even with its start an hour ahead,
// where any schedule would say to wait. The test watches the sleep
// itself rather than the wall clock, which a loaded host stretches.
func TestGovernorUnpacedNeverSleeps(t *testing.T) {
	g := NewGovernor(time.Now().Add(time.Hour), 0, 4)
	g.sleep = func(d time.Duration) { t.Fatalf("unpaced governor slept %v", d) }
	for i := 0; i < 1000; i++ {
		g.Pace()
	}
	if g.Sent() != 1000 {
		t.Fatalf("Sent = %d, want 1000", g.Sent())
	}
}
