package guest

import (
	"bytes"
	"testing"
	"time"

	"potemkin/internal/dns"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/vmm"
)

// rig bundles a kernel, host, VM, and guest instance with a captured
// outbound packet list.
type rig struct {
	k   *sim.Kernel
	h   *vmm.VMHost
	vm  *vmm.VM
	in  *Instance
	out []*netsim.Packet
}

func newRig(t *testing.T, profile *Profile, hooks Hooks) *rig {
	t.Helper()
	k := sim.NewKernel(7)
	h := vmm.NewHost(k, vmm.DefaultHostConfig("guest-test"))
	h.RegisterImage(profile.Name, 8192, 1024, 128, 11)
	r := &rig{k: k, h: h}
	vm, err := h.FlashClone(profile.Name, netsim.MustParseAddr("10.1.2.3"), nil)
	if err != nil {
		t.Fatal(err)
	}
	k.Run() // finish clone
	r.vm = vm
	pick := func(rng *sim.RNG) netsim.Addr { return netsim.Addr(rng.Uint64n(1 << 32)) }
	r.in = New(k, vm, profile, func(p *netsim.Packet) { r.out = append(r.out, p.Clone()) }, pick, hooks)
	return r
}

func (r *rig) deliver(pkt *netsim.Packet) { r.in.HandlePacket(r.k.Now(), pkt) }

func TestSynToOpenPortGetsSynAck(t *testing.T) {
	r := newRig(t, WindowsXP(), Hooks{})
	r.deliver(netsim.TCPSyn(netsim.MustParseAddr("6.6.6.6"), r.in.IP, 1234, 445, 100))
	if len(r.out) != 1 {
		t.Fatalf("replies = %d", len(r.out))
	}
	resp := r.out[0]
	if resp.Flags != netsim.FlagSYN|netsim.FlagACK {
		t.Errorf("flags = %s", netsim.FlagString(resp.Flags))
	}
	if resp.Ack != 101 {
		t.Errorf("ack = %d, want 101", resp.Ack)
	}
	if resp.Src != r.in.IP || resp.Dst != netsim.MustParseAddr("6.6.6.6") {
		t.Errorf("addresses wrong: %s", resp)
	}
	if resp.SrcPort != 445 || resp.DstPort != 1234 {
		t.Errorf("ports wrong: %s", resp)
	}
}

func TestSynToClosedPortGetsRst(t *testing.T) {
	r := newRig(t, WindowsXP(), Hooks{})
	r.deliver(netsim.TCPSyn(1, r.in.IP, 1234, 9999, 5))
	if len(r.out) != 1 || r.out[0].Flags&netsim.FlagRST == 0 {
		t.Fatalf("expected RST, got %v", r.out)
	}
}

func TestICMPEchoReply(t *testing.T) {
	r := newRig(t, LinuxServer(), Hooks{})
	r.deliver(netsim.ICMPEcho(1, r.in.IP, true))
	if len(r.out) != 1 || r.out[0].Proto != netsim.ProtoICMP || r.out[0].ICMPType != 0 {
		t.Fatalf("expected echo reply, got %v", r.out)
	}
}

func TestUDPClosedPortUnreachable(t *testing.T) {
	r := newRig(t, LinuxServer(), Hooks{})
	r.deliver(netsim.UDPDatagram(1, r.in.IP, 1000, 1434, []byte{1}))
	if len(r.out) != 1 || r.out[0].ICMPType != 3 || r.out[0].ICMPCode != 3 {
		t.Fatalf("expected port unreachable, got %v", r.out)
	}
}

func TestExploitInfectsAndScans(t *testing.T) {
	var infected *Instance
	r := newRig(t, WindowsXP(), Hooks{OnInfected: func(in *Instance) { infected = in }})
	exploit := netsim.TCPSyn(1, r.in.IP, 1234, 445, 5)
	exploit.Payload = WindowsXP().ExploitPayload(0)
	r.deliver(exploit)

	if infected != r.in || !r.in.Infected {
		t.Fatal("exploit did not infect")
	}
	if r.in.Generation != 1 {
		t.Errorf("generation = %d, want 1", r.in.Generation)
	}
	// Infection burst dirtied pages.
	if r.vm.PrivateBytes() == 0 {
		t.Error("infection did not dirty memory")
	}
	// Let the scanner run for 2s of sim time: WindowsXP scans 20/s.
	before := len(r.out)
	r.k.RunFor(2 * time.Second)
	scans := len(r.out) - before
	if scans < 20 || scans > 60 {
		t.Errorf("scans in 2s = %d, want ~40", scans)
	}
	// Scan probes carry the exploit payload with bumped generation.
	probe := r.out[len(r.out)-1]
	if probe.DstPort != 445 {
		t.Errorf("scan port = %d", probe.DstPort)
	}
	wantPayload := WindowsXP().ExploitPayload(1)
	if !bytes.Equal(probe.Payload, wantPayload) {
		t.Errorf("scan payload = %x, want %x", probe.Payload, wantPayload)
	}
}

func TestExploitWrongPortIgnored(t *testing.T) {
	r := newRig(t, WindowsXP(), Hooks{})
	pkt := netsim.TCPSyn(1, r.in.IP, 1234, 80, 5) // open but not vulnerable
	pkt.Payload = WindowsXP().ExploitPayload(0)
	r.deliver(pkt)
	if r.in.Infected {
		t.Error("infected via non-vulnerable port")
	}
}

func TestExploitWrongSigIgnored(t *testing.T) {
	r := newRig(t, WindowsXP(), Hooks{})
	pkt := netsim.TCPSyn(1, r.in.IP, 1234, 445, 5)
	pkt.Payload = []byte("just a normal request")
	r.deliver(pkt)
	if r.in.Infected {
		t.Error("infected by benign payload")
	}
}

func TestReinfectionCounted(t *testing.T) {
	r := newRig(t, WindowsXP(), Hooks{})
	pkt := netsim.TCPSyn(1, r.in.IP, 1234, 445, 5)
	pkt.Payload = WindowsXP().ExploitPayload(0)
	r.deliver(pkt)
	r.deliver(pkt)
	if r.in.Stats().ExploitHits != 1 {
		t.Errorf("ExploitHits = %d", r.in.Stats().ExploitHits)
	}
	if r.in.Generation != 1 {
		t.Errorf("generation changed on reinfection: %d", r.in.Generation)
	}
}

func TestGenerationChains(t *testing.T) {
	r := newRig(t, WindowsXP(), Hooks{})
	pkt := netsim.TCPSyn(1, r.in.IP, 1234, 445, 5)
	pkt.Payload = WindowsXP().ExploitPayload(3) // attacker at generation 3
	r.deliver(pkt)
	if r.in.Generation != 4 {
		t.Errorf("generation = %d, want 4", r.in.Generation)
	}
}

func TestUDPExploit(t *testing.T) {
	r := newRig(t, SQLServer(), Hooks{})
	pkt := netsim.UDPDatagram(1, r.in.IP, 1000, 1434, SQLServer().ExploitPayload(0))
	r.deliver(pkt)
	if !r.in.Infected {
		t.Fatal("slammer-style UDP exploit did not infect")
	}
}

func TestMultiStageFetchesPayload(t *testing.T) {
	server := netsim.MustParseAddr("66.6.6.6")
	r := newRig(t, MultiStage(server), Hooks{})
	pkt := netsim.TCPSyn(1, r.in.IP, 1234, 445, 5)
	pkt.Payload = r.in.Profile.ExploitPayload(0)
	r.deliver(pkt)
	var fetch *netsim.Packet
	for _, p := range r.out {
		if p.Dst == server {
			fetch = p
		}
	}
	if fetch == nil {
		t.Fatal("no second-stage fetch emitted")
	}
	if fetch.DstPort != 8080 || !bytes.Contains(fetch.Payload, []byte("stage2")) {
		t.Errorf("fetch = %s", fetch)
	}
}

func TestMultiStageDNSLookupThenFetch(t *testing.T) {
	r := newRig(t, MultiStageDNS("stage2.evil.example"), Hooks{})
	r.in.ForceInfect(0)

	// First outbound packet: a DNS query for the payload host.
	var query *netsim.Packet
	for _, p := range r.out {
		if p.Proto == netsim.ProtoUDP && p.DstPort == 53 {
			query = p
		}
	}
	if query == nil {
		t.Fatal("no DNS query emitted")
	}
	m, err := dns.Parse(query.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Questions) != 1 || m.Questions[0].Name != "stage2.evil.example" {
		t.Fatalf("query: %+v", m.Questions)
	}
	if r.in.Stats().DNSQueries != 1 {
		t.Errorf("DNSQueries = %d", r.in.Stats().DNSQueries)
	}

	// Answer it from a safe resolver; the guest must fetch stage 2 from
	// the answered address.
	resolver := dns.NewResolver(netsim.MustParsePrefix("10.5.0.0/16"))
	resp := resolver.ServePacket(query)
	if resp == nil {
		t.Fatal("resolver refused query")
	}
	r.out = nil
	r.deliver(resp)
	if r.in.Stats().DNSResponses != 1 || r.in.Stats().Stage2Fetches != 1 {
		t.Fatalf("stats = %+v", r.in.Stats())
	}
	if len(r.out) != 1 {
		t.Fatalf("fetch packets = %d", len(r.out))
	}
	fetch := r.out[0]
	want, _ := resolver.Lookup("stage2.evil.example")
	if fetch.Dst != want || fetch.DstPort != 8080 {
		t.Errorf("fetch = %s, want dst %s:8080", fetch, want)
	}
	// A duplicate response is ignored (pending cleared).
	r.out = nil
	r.deliver(resp)
	if len(r.out) != 0 || r.in.Stats().Stage2Fetches != 1 {
		t.Error("duplicate DNS response refetched")
	}
}

func TestDNSResponseWithWrongIDIgnored(t *testing.T) {
	r := newRig(t, MultiStageDNS("x.example"), Hooks{})
	r.in.ForceInfect(0)
	forged := &dns.Message{
		ID: 0x9999, Flags: dns.FlagQR,
		Answers: []dns.Answer{{Name: "x.example", TTL: 1, Addr: 0x01020304}},
	}
	b, _ := forged.Marshal()
	r.out = nil
	r.deliver(netsim.UDPDatagram(8, r.in.IP, 53, 5353, b))
	if r.in.Stats().Stage2Fetches != 0 {
		t.Error("forged DNS response accepted")
	}
}

func TestMemoryWorkloadGrowsThenPlateaus(t *testing.T) {
	r := newRig(t, WindowsXP(), Hooks{})
	r.in.Start()
	afterBurst := r.vm.Mem.PrivatePages()
	if afterBurst == 0 {
		t.Fatal("initial burst dirtied nothing")
	}
	r.k.RunFor(30 * time.Second)
	after30 := r.vm.Mem.PrivatePages()
	r.k.RunFor(30 * time.Second)
	after60 := r.vm.Mem.PrivatePages()
	if after30 <= afterBurst {
		t.Error("steady workload did not grow footprint")
	}
	// Working-set concentration: second 30 s adds far fewer pages than
	// the first.
	grow1 := after30 - afterBurst
	grow2 := after60 - after30
	if grow2*2 > grow1 {
		t.Errorf("no plateau: first 30s +%d pages, second +%d", grow1, grow2)
	}
	// Footprint stays small relative to the 1024-page resident image.
	if after60 > 600 {
		t.Errorf("footprint %d pages, want well under resident 1024", after60)
	}
}

func TestStopHaltsActivity(t *testing.T) {
	r := newRig(t, WindowsXP(), Hooks{})
	r.in.Start()
	r.k.RunFor(time.Second)
	r.in.Stop()
	dirty := r.in.Stats().PagesDirty
	r.k.RunFor(10 * time.Second)
	if r.in.Stats().PagesDirty != dirty {
		t.Error("touches continued after Stop")
	}
}

func TestForceInfect(t *testing.T) {
	r := newRig(t, WindowsXP(), Hooks{})
	r.in.ForceInfect(0)
	if !r.in.Infected || r.in.Generation != 0 {
		t.Errorf("infected=%v gen=%d", r.in.Infected, r.in.Generation)
	}
	r.in.ForceInfect(5) // no-op when already infected
	if r.in.Generation != 0 {
		t.Error("ForceInfect overwrote generation")
	}
}

func TestScanStopsWhenStopped(t *testing.T) {
	r := newRig(t, WindowsXP(), Hooks{})
	r.in.ForceInfect(0)
	r.k.RunFor(time.Second)
	n := r.in.Stats().ScansOut
	if n == 0 {
		t.Fatal("no scans after infection")
	}
	r.in.Stop()
	r.k.RunFor(5 * time.Second)
	if r.in.Stats().ScansOut != n {
		t.Error("scans continued after Stop")
	}
}

func TestExploitPayloadNoVulnerability(t *testing.T) {
	if LinuxServer().ExploitPayload(0) != nil {
		t.Error("invulnerable profile produced exploit payload")
	}
}

func TestRepliesHaveDistinctIPIDs(t *testing.T) {
	r := newRig(t, LinuxServer(), Hooks{})
	r.deliver(netsim.ICMPEcho(1, r.in.IP, true))
	r.deliver(netsim.ICMPEcho(1, r.in.IP, true))
	if r.out[0].ID == r.out[1].ID {
		t.Error("replies share IP ID")
	}
}
