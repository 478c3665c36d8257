package cluster

import (
	"testing"
	"time"

	"potemkin/internal/fault"
)

// TestCoordinatorLeavesNoGoroutines: every connection's read loop and
// heartbeat sender, the accept loop and the workers themselves are gone
// once Close returns and the workers have exited — after a clean run, a
// run that recovered a killed worker onto a standby, and a run that
// degraded for want of one. A read loop holding a frame nobody will
// await leaves on the connection's stop channel.
func TestCoordinatorLeavesNoGoroutines(t *testing.T) {
	for _, tc := range []struct {
		name     string
		faults   *fault.Config
		standbys int
		degrade  bool
	}{
		{"clean", nil, 0, false},
		{"recovered", killFaults(100*time.Millisecond, 0), 1, false},
		{"degraded", killFaults(100*time.Millisecond, 0), 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sp := standard(t, 19)
			sp.runFor = 200 * time.Millisecond
			sp.faults = tc.faults
			sp.coord = func(cfg *Config) { cfg.RecoveryWait = 300 * time.Millisecond }
			g, fds := resources()
			h := startCluster(t, sp, "cluster")
			h.connect(t, 2+tc.standbys)
			if _, err := h.drive(t); (err != nil) != tc.degrade {
				t.Fatalf("cluster run returned %v", err)
			}
			h.shutdown(t)
			requireNoLeak(t, tc.name, g, fds)
		})
	}
}
