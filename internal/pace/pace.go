// Package pace is the closed-loop rate pacing shared by the wall-clock
// load generators (cmd/floodgen) and the deterministic schedulers (the
// scenario compiler's stage spacing). The core is one piece of
// arithmetic — the absolute schedule of a constant-rate event stream —
// used two ways: Schedule computes ideal offsets for virtual-time
// planning, and Governor sleeps a real send loop onto the same
// schedule so pacing error never accumulates.
package pace

import "time"

// Schedule returns the ideal offset of event n (0-based) in a stream of
// perSec events per second: n/perSec seconds. Pure arithmetic — no
// clock — so deterministic planners can space virtual events with
// exactly the spacing the wall-clock Governor paces real ones.
func Schedule(n uint64, perSec float64) time.Duration {
	if perSec <= 0 {
		return 0
	}
	return time.Duration(float64(n) / perSec * float64(time.Second))
}

// Governor paces a send loop toward a target rate. Sleeps happen every
// batch events rather than every event, so high rates are not limited
// by timer granularity, and always toward the absolute schedule from
// start, so a slow stretch is caught up rather than compounded.
type Governor struct {
	start time.Time
	rate  float64 // events/second; <= 0 disables pacing
	batch uint64
	n     uint64
}

// NewGovernor builds a governor for perSec events per second measured
// from start. batch <= 0 defaults to 64 (floodgen's historical batch).
func NewGovernor(start time.Time, perSec float64, batch int) *Governor {
	if batch <= 0 {
		batch = 64
	}
	return &Governor{start: start, rate: perSec, batch: uint64(batch)}
}

// Pace records one event and, at batch boundaries, sleeps until the
// schedule says the loop may continue.
func (g *Governor) Pace() {
	g.n++
	if g.rate <= 0 || g.n%g.batch != 0 {
		return
	}
	if d := time.Until(g.start.Add(Schedule(g.n, g.rate))); d > 0 {
		time.Sleep(d)
	}
}
