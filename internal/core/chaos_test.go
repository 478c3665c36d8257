package core

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// TestChaosGolden pins RunChaos's numbers byte for byte: the table, the
// applied-fault log and each arm's event count for one seed. Chaos has
// no committed artifact under results/, so this is what notices a
// change that moves them.
func TestChaosGolden(t *testing.T) {
	res := RunChaos(ChaosConfig{Seed: 7, Servers: 3, Duration: 30 * time.Second})
	var b strings.Builder
	b.WriteString(res.Table.String())
	b.WriteString("\nFault log (faulted arm):\n")
	for _, line := range res.FaultLog {
		b.WriteString(line + "\n")
	}
	fmt.Fprintf(&b, "\nEvents: baseline %d, faulted %d\n", res.Baseline.EventCount, res.Faulted.EventCount)

	const golden = "testdata/chaos_seed7.golden"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("RunChaos output differs from %s:\n--- got\n%s--- want\n%s", golden, got, want)
	}
}

func TestRunChaosDegradesGracefully(t *testing.T) {
	cfg := ChaosConfig{Seed: 7, Duration: 45 * time.Second}
	res := RunChaos(cfg)
	if res.Table.NumRows() != 2 {
		t.Fatalf("rows = %d\n%s", res.Table.NumRows(), res.Table)
	}
	f := res.Faulted
	// The crash landed, stranded bindings were recycled through the
	// gateway, and replacement work reached the survivors.
	if f.CrashKilledVMs == 0 {
		t.Fatalf("crash killed no VMs\n%s", res.Table)
	}
	if f.BackendLost != f.CrashKilledVMs {
		t.Errorf("BackendLost = %d, want %d (every stranded binding recycled)",
			f.BackendLost, f.CrashKilledVMs)
	}
	if f.FarmRetries == 0 {
		t.Error("no farm-level retries during the flaky-clone window")
	}
	if len(res.FaultLog) == 0 {
		t.Error("empty fault log")
	}
	// Degraded, not collapsed: the faulted arm still captures a decent
	// share of what the baseline does.
	if f.Captured*2 < res.Baseline.Captured {
		t.Errorf("captures collapsed: %d vs baseline %d", f.Captured, res.Baseline.Captured)
	}
	if !res.ConservationOK() {
		t.Errorf("binding ledger unbalanced\n%s", res.Table)
	}

	// Determinism: the same seed reproduces the identical event stream.
	again := RunChaos(cfg)
	if res.Faulted.EventCount != again.Faulted.EventCount ||
		res.Faulted.EventHash != again.Faulted.EventHash {
		t.Errorf("replay diverged: %d/%#x vs %d/%#x",
			res.Faulted.EventCount, res.Faulted.EventHash,
			again.Faulted.EventCount, again.Faulted.EventHash)
	}
}
