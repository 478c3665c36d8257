package gateway

import (
	"testing"
	"time"

	"potemkin/internal/netsim"
	"potemkin/internal/sim"
)

func TestScanFilterShedsRepeatScanners(t *testing.T) {
	g, fb, k := newTestGateway(t, func(c *Config) { c.ScanFilter = 3 })
	// One loud scanner sweeps 100 addresses on one port.
	for i := 0; i < 100; i++ {
		g.HandleInbound(k.Now(), syn(ext(0), mon(i)))
	}
	k.Run()
	if got := len(fb.spawned); got != 3 {
		t.Errorf("spawned %d VMs, want 3 (filter threshold)", got)
	}
	if got := g.Stats().ScanFiltered; got != 97 {
		t.Errorf("ScanFiltered = %d, want 97", got)
	}
}

func TestScanFilterPerPortAndSource(t *testing.T) {
	g, fb, k := newTestGateway(t, func(c *Config) { c.ScanFilter = 2 })
	// Same source, two ports: separate budgets.
	for i := 0; i < 10; i++ {
		g.HandleInbound(k.Now(), netsim.TCPSyn(ext(0), mon(i), 1000, 445, 1))
		g.HandleInbound(k.Now(), netsim.TCPSyn(ext(0), mon(100+i), 1000, 80, 1))
	}
	// A different source gets its own budget.
	for i := 0; i < 10; i++ {
		g.HandleInbound(k.Now(), netsim.TCPSyn(ext(1), mon(200+i), 1000, 445, 1))
	}
	k.Run()
	if got := len(fb.spawned); got != 6 {
		t.Errorf("spawned %d VMs, want 6 (2 per (src,port))", got)
	}
}

func TestScanFilterNeverCutsBoundConversations(t *testing.T) {
	g, fb, k := newTestGateway(t, func(c *Config) { c.ScanFilter = 1 })
	g.HandleInbound(k.Now(), syn(ext(0), mon(0)))
	k.Run()
	// Source exhausted its budget, but follow-up packets to the bound
	// address still flow.
	for i := 0; i < 5; i++ {
		g.HandleInbound(k.Now(), syn(ext(0), mon(0)))
	}
	if got := len(fb.spawned[0].delivered); got != 6 {
		t.Errorf("delivered = %d, want 6", got)
	}
}

func TestScanFilterIgnoresInternalSources(t *testing.T) {
	g, fb, k := newTestGateway(t, func(c *Config) {
		c.ScanFilter = 1
		c.Policy = PolicyDropAll
	})
	// Internal source (a honeyfarm VM scanning inside the farm) must
	// never be filtered: every internal contact spawns a VM.
	for i := 0; i < 5; i++ {
		g.HandleInbound(k.Now(), syn(mon(200), mon(i)))
	}
	k.Run()
	if got := len(fb.spawned); got != 5 {
		t.Errorf("spawned %d, want 5 (internal sources unfiltered)", got)
	}
	if g.Stats().ScanFiltered != 0 {
		t.Errorf("ScanFiltered = %d", g.Stats().ScanFiltered)
	}
	_ = fb
}

func TestScanFilterDisabledByDefault(t *testing.T) {
	g, fb, k := newTestGateway(t, nil)
	for i := 0; i < 50; i++ {
		g.HandleInbound(k.Now(), syn(ext(0), mon(i)))
	}
	k.Run()
	if got := len(fb.spawned); got != 50 {
		t.Errorf("spawned %d, want 50 (no filter)", got)
	}
}

// A binding the scan detector flagged idles out like any other: its
// evidence outlives the recycle only through a checkpoint taken when it
// is detected (the facade's CheckpointDir).
func TestDetectedBindingRecycles(t *testing.T) {
	g, _, k := newTestGateway(t, func(c *Config) {
		c.IdleTimeout = 2 * time.Second
		c.DetectThreshold = 3
		c.Policy = PolicyDropAll
	})
	g.HandleInbound(k.Now(), syn(ext(0), mon(0)))
	k.RunUntil(sim.Start.Add(time.Second))
	for i := 0; i < 5; i++ {
		g.HandleOutbound(k.Now(), syn(mon(0), netsim.MustParseAddr("99.0.0.1")+netsim.Addr(i)))
	}
	if !g.Binding(mon(0)).Detected() {
		t.Fatal("not detected")
	}
	k.RunUntil(sim.Start.Add(time.Minute))
	if g.Binding(mon(0)) != nil {
		t.Error("detected binding survived its idle timeout")
	}
	g.Close()
}
