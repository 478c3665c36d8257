package farm

import (
	"testing"
	"time"

	"potemkin/internal/gateway"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/vmm"
)

func TestCrashServerRecyclesBindings(t *testing.T) {
	r := newRig(t, nil, nil)
	for i := 0; i < 10; i++ {
		r.g.HandleInbound(r.k.Now(), probe(scanner, victim+netsim.Addr(i)))
	}
	r.k.RunFor(2 * time.Second)
	if r.f.LiveVMs() != 10 {
		t.Fatalf("live = %d", r.f.LiveVMs())
	}
	onCrashed := r.f.Hosts()[0].NumVMs()
	if onCrashed == 0 {
		t.Fatal("server 0 empty; test needs VMs to strand")
	}

	killed := r.f.CrashServer(r.k.Now(), 0)
	if killed != onCrashed {
		t.Errorf("killed = %d, want %d", killed, onCrashed)
	}
	if r.f.UpServers() != 1 {
		t.Errorf("UpServers = %d", r.f.UpServers())
	}
	// Every stranded binding went back through the gateway for recycling
	// — none leaked, none survived pointing at a dead VM.
	gs := r.g.Stats()
	if gs.BackendLost != uint64(killed) {
		t.Errorf("BackendLost = %d, want %d", gs.BackendLost, killed)
	}
	if r.f.Stats().CrashRecycles != uint64(killed) {
		t.Errorf("CrashRecycles = %d, want %d", r.f.Stats().CrashRecycles, killed)
	}
	if gs.BindingsCreated != uint64(r.g.NumBindings())+gs.BindingsRecycled {
		t.Error("binding ledger unbalanced after crash")
	}
	if r.f.LiveVMs() != 10-killed {
		t.Errorf("live = %d, want %d survivors", r.f.LiveVMs(), 10-killed)
	}
	if err := r.f.CheckInvariants(); err != nil {
		t.Error(err)
	}

	// New traffic places on the survivor, including re-probes of the
	// crashed addresses.
	for i := 0; i < 10; i++ {
		r.g.HandleInbound(r.k.Now(), probe(scanner, victim+netsim.Addr(i)))
	}
	r.k.RunFor(2 * time.Second)
	if r.f.LiveVMs() != 10 {
		t.Errorf("live after re-probe = %d, want 10", r.f.LiveVMs())
	}
	if got := r.f.Hosts()[0].NumVMs(); got != 0 {
		t.Errorf("down server hosts %d VMs", got)
	}

	// Recovery restores placement.
	r.f.RecoverServer(0)
	if r.f.UpServers() != 2 {
		t.Errorf("UpServers after recovery = %d", r.f.UpServers())
	}
	r.g.HandleInbound(r.k.Now(), probe(scanner, victim+netsim.Addr(50)))
	r.k.RunFor(2 * time.Second)
	if r.f.Hosts()[0].NumVMs()+r.f.Hosts()[1].NumVMs() != 11 {
		t.Error("spawn after recovery failed")
	}
}

func TestCrashWhileClonePendingRetriesOnSurvivor(t *testing.T) {
	r := newRig(t, nil, nil)
	r.g.HandleInbound(r.k.Now(), probe(scanner, victim))
	// Crash whichever server the clone went to, mid-flight.
	r.k.RunFor(50 * time.Millisecond)
	dead := 0
	if r.f.Hosts()[0].NumVMs() == 0 {
		dead = 1
	}
	if r.f.Hosts()[dead].NumVMs() != 1 {
		t.Fatal("no clone in flight")
	}
	r.f.CrashServer(r.k.Now(), dead)
	r.k.RunFor(5 * time.Second)

	// The in-flight request was re-placed on the survivor; the late
	// ready from the dead host resurrected nothing.
	if got := r.f.Hosts()[dead].NumVMs(); got != 0 {
		t.Errorf("dead server hosts %d VMs", got)
	}
	if got := r.f.Hosts()[1-dead].NumVMs(); got != 1 {
		t.Errorf("survivor hosts %d VMs, want the re-placed clone", got)
	}
	if r.f.Stats().SpawnRetries == 0 {
		t.Error("no farm-level retry recorded")
	}
	if r.f.Stats().SpawnFailures != 0 {
		t.Errorf("SpawnFailures = %d; retry should have saved the request", r.f.Stats().SpawnFailures)
	}
	if b := r.g.Binding(victim); b == nil || b.State != gateway.BindingActive {
		t.Error("binding never became active after re-placement")
	}
	if err := r.f.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestCrashWithNoSurvivorFailsOnce(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.Servers = 1
	}, nil)
	r.g.HandleInbound(r.k.Now(), probe(scanner, victim))
	r.k.RunFor(50 * time.Millisecond)
	r.f.CrashServer(r.k.Now(), 0)
	r.k.RunFor(10 * time.Second)

	// No host to retry on: the request fails exactly once, the binding
	// is cleaned up, and no VM exists anywhere.
	if r.f.Stats().SpawnFailures != 1 {
		t.Errorf("SpawnFailures = %d, want 1", r.f.Stats().SpawnFailures)
	}
	if r.f.LiveVMs() != 0 {
		t.Errorf("live = %d on a dead farm", r.f.LiveVMs())
	}
	if r.g.NumBindings() != 0 {
		t.Error("binding survived total farm loss")
	}
	gs := r.g.Stats()
	if gs.BindingsCreated != gs.BindingsRecycled {
		t.Error("binding ledger unbalanced after total loss")
	}
}

func TestCloneFaultRetriesTransparently(t *testing.T) {
	r := newRig(t, nil, nil)
	// Both servers fail their first clone attempt, then heal.
	faults := 2
	for _, h := range r.f.Hosts() {
		h.SetCloneFault(func() error {
			if faults > 0 {
				faults--
				return vmm.ErrCloneFault
			}
			return nil
		})
	}
	r.g.HandleInbound(r.k.Now(), probe(scanner, victim))
	r.k.RunFor(5 * time.Second)
	if r.f.Stats().SpawnRetries == 0 {
		t.Error("no retries recorded")
	}
	if r.f.Stats().SpawnFailures != 0 {
		t.Errorf("SpawnFailures = %d; budget should have absorbed the faults", r.f.Stats().SpawnFailures)
	}
	if r.f.LiveVMs() != 1 {
		t.Errorf("live = %d, want the retried VM", r.f.LiveVMs())
	}
}

func TestLinkDownDropsDataNotControl(t *testing.T) {
	var replies int
	r := newRig(t, nil, func(c *gateway.Config) {
		c.Policy = gateway.PolicyReflectSource
		c.ExternalOut = func(sim.Time, *netsim.Packet) { replies++ }
	})
	r.f.SetLinkDown(true)
	// Clones still complete while the data link is down (control plane is
	// separate), but no honeypot reply crosses the link.
	r.g.HandleInbound(r.k.Now(), probe(scanner, victim))
	r.k.RunFor(2 * time.Second)
	if r.f.LiveVMs() != 1 {
		t.Fatalf("live = %d; clone must survive a data-link outage", r.f.LiveVMs())
	}
	if replies != 0 {
		t.Errorf("%d replies crossed a down link", replies)
	}
	if r.f.Stats().LinkDrops == 0 {
		t.Error("no link drops counted")
	}
	// Restore and re-probe: traffic flows again.
	r.f.SetLinkDown(false)
	r.g.HandleInbound(r.k.Now(), probe(scanner, victim))
	r.k.RunFor(time.Second)
	if replies == 0 {
		t.Error("no reply after link restore")
	}
}
