package cluster

import (
	"runtime"
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
			const seed = 19
			before := runtime.NumGoroutine()
			h := startCluster(t, seed, tc.faults, 2, tc.standbys, func(cfg *Config) {
				cfg.RecoveryWait = 300 * time.Millisecond
			})
			if _, err := h.drive(t, seed, 200*time.Millisecond); (err != nil) != tc.degrade {
				t.Fatalf("cluster run returned %v", err)
			}
			h.shutdown(t)
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines before the cluster ran, %d after it closed:\n%s",
					before, n, buf[:runtime.Stack(buf, true)])
			}
		})
	}
}
