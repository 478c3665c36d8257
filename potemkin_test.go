package potemkin

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"potemkin/internal/ingest"
	"potemkin/internal/netsim"
	"potemkin/internal/telescope"
	"potemkin/internal/vmm"
)

func TestNewDefaults(t *testing.T) {
	hf, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer hf.Close()
	if hf.Stats().Now != 0 {
		t.Errorf("Now = %v", hf.Stats().Now)
	}
	st := hf.Stats()
	if st.LiveVMs != 0 || st.InboundPackets != 0 {
		t.Errorf("fresh farm stats = %+v", st)
	}
}

func TestNewRejectsBadOptions(t *testing.T) {
	if _, err := New(Options{MonitoredSpace: "garbage"}); err == nil {
		t.Error("bad CIDR accepted")
	}
	if _, err := New(Options{Servers: -1}); err == nil {
		t.Error("negative servers accepted")
	}
}

func TestProbeLifecycle(t *testing.T) {
	hf := MustNew(Options{Policy: ReflectSource})
	defer hf.Close()
	if err := hf.InjectProbe("203.0.113.9", "10.5.1.2", 445); err != nil {
		t.Fatal(err)
	}
	hf.RunFor(2 * time.Second)
	st := hf.Stats()
	if st.LiveVMs != 1 {
		t.Errorf("LiveVMs = %d", st.LiveVMs)
	}
	if st.BindingsCreated != 1 || st.DeliveredToVM != 1 {
		t.Errorf("stats = %+v", st)
	}
	// Reply went back to the scanner.
	if st.OutboundToSource != 1 {
		t.Errorf("OutboundToSource = %d", st.OutboundToSource)
	}
}

func TestProbeOutsideSpaceRejected(t *testing.T) {
	hf := MustNew(Options{})
	defer hf.Close()
	if err := hf.InjectProbe("203.0.113.9", "11.0.0.1", 445); err == nil {
		t.Error("probe outside space accepted")
	}
	if err := hf.InjectProbe("bad", "10.5.0.1", 445); err == nil {
		t.Error("bad source accepted")
	}
}

func TestExploitInfectsAndIsDetected(t *testing.T) {
	var infectedAddr, detectedAddr string
	hf := MustNew(Options{
		Policy: DropAll,
		Hooks: &Hooks{
			OnInfected: func(a string, gen int) { infectedAddr = a },
			OnDetected: func(a string, n int) { detectedAddr = a },
		},
	})
	defer hf.Close()
	if err := hf.InjectExploit("203.0.113.9", "10.5.1.2"); err != nil {
		t.Fatal(err)
	}
	hf.RunFor(5 * time.Second)
	if infectedAddr != "10.5.1.2" {
		t.Errorf("infected = %q", infectedAddr)
	}
	if detectedAddr != "10.5.1.2" {
		t.Errorf("detected = %q", detectedAddr)
	}
	if hf.Stats().InfectedVMs != 1 {
		t.Errorf("InfectedVMs = %d", hf.Stats().InfectedVMs)
	}
	// Drop-all: the worm's scans died at the gateway.
	if hf.Stats().OutboundDropped == 0 {
		t.Error("no drops recorded")
	}
}

func TestExploitOnInvulnerableGuest(t *testing.T) {
	hf := MustNew(Options{Guest: GuestLinuxServer})
	defer hf.Close()
	if err := hf.InjectExploit("203.0.113.9", "10.5.1.2"); err == nil {
		t.Error("exploit accepted for invulnerable guest")
	}
}

func TestRecyclingThroughFacade(t *testing.T) {
	hf := MustNew(Options{IdleTimeout: 2 * time.Second})
	defer hf.Close()
	hf.InjectProbe("203.0.113.9", "10.5.1.2", 80)
	hf.RunFor(time.Second)
	if hf.Stats().LiveVMs != 1 {
		t.Fatalf("LiveVMs = %d", hf.Stats().LiveVMs)
	}
	hf.RunFor(30 * time.Second)
	if hf.Stats().LiveVMs != 0 {
		t.Errorf("idle VM survived: %d", hf.Stats().LiveVMs)
	}
	if hf.Stats().BindingsRecycled != 1 {
		t.Errorf("recycled = %d", hf.Stats().BindingsRecycled)
	}
}

func TestNegativeIdleTimeoutDisablesRecycling(t *testing.T) {
	hf := MustNew(Options{IdleTimeout: -1})
	defer hf.Close()
	hf.InjectProbe("203.0.113.9", "10.5.1.2", 80)
	hf.RunFor(5 * time.Minute)
	if hf.Stats().LiveVMs != 1 {
		t.Errorf("LiveVMs = %d, want 1 (no recycling)", hf.Stats().LiveVMs)
	}
}

func TestTraceRoundTripThroughFacade(t *testing.T) {
	hf := MustNew(Options{IdleTimeout: -1})
	defer hf.Close()
	recs, err := hf.GenerateTrace(10*time.Second, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("empty trace")
	}
	n, err := hf.Replay(SliceSource(recs))
	if err != nil {
		t.Fatal(err)
	}
	if n != len(recs) {
		t.Errorf("injected %d of %d", n, len(recs))
	}
	st := hf.Stats()
	if st.InboundPackets != uint64(len(recs)) {
		t.Errorf("InboundPackets = %d", st.InboundPackets)
	}
	if st.LiveVMs == 0 {
		t.Error("trace spawned no VMs")
	}
	if st.LiveVMs > len(recs) {
		t.Errorf("more VMs (%d) than packets (%d)", st.LiveVMs, len(recs))
	}
}

func TestReplayEmptyTrace(t *testing.T) {
	hf := MustNew(Options{})
	defer hf.Close()
	if n, err := hf.Replay(SliceSource(nil)); n != 0 || err != nil {
		t.Errorf("injected %d from empty trace (err %v)", n, err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Stats {
		hf := MustNew(Options{Seed: 7, IdleTimeout: 2 * time.Second})
		defer hf.Close()
		recs, _ := hf.GenerateTrace(30*time.Second, 100)
		hf.Replay(SliceSource(recs))
		return hf.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("non-deterministic:\n%+v\n%+v", a, b)
	}
}

func TestEgressObserved(t *testing.T) {
	var egress []string
	hf := MustNew(Options{Policy: ReflectSource, Hooks: &Hooks{OnEgress: func(p string) { egress = append(egress, p) }}})
	defer hf.Close()
	hf.InjectProbe("203.0.113.9", "10.5.1.2", 445)
	hf.RunFor(2 * time.Second)
	if len(egress) != 1 || !strings.Contains(egress[0], "203.0.113.9") {
		t.Errorf("egress = %v", egress)
	}
}

func TestStatsString(t *testing.T) {
	hf := MustNew(Options{})
	defer hf.Close()
	s := hf.Stats().String()
	if !strings.Contains(s, "vms=0") {
		t.Errorf("summary = %q", s)
	}
}

// TestInternalsExposed: Internals holds only the engine, and every
// farm has one — the default farm is one domain of it.
func TestInternalsExposed(t *testing.T) {
	hf := MustNew(Options{})
	defer hf.Close()
	eng := hf.Internals().Engine
	if eng == nil {
		t.Fatal("Internals.Engine nil on the default farm")
	}
	if n := len(eng.Domains()); n != 1 {
		t.Fatalf("default farm has %d domains, want 1", n)
	}
	d := eng.Domains()[0]
	if d.K == nil || d.G == nil || d.F == nil || d.Resolver == nil {
		t.Errorf("domain incomplete: %+v", d)
	}
	// One shard names its hosts plainly; the -s<i> suffix is for
	// telling several shards' hosts apart.
	if name := d.F.Hosts()[0].Cfg.Name; strings.Contains(name, "-s0") {
		t.Errorf("one-shard host named %q, want no shard suffix", name)
	}
}

// countingWriter counts the Write calls it passes through.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestEventLogThroughFacade: with one gateway shard the event log and
// span trace stream — written through at epoch boundaries inside a
// call, and complete up to the clock when the call returns — rather
// than waiting for Close.
func TestEventLogThroughFacade(t *testing.T) {
	var buf, tr countingWriter
	hf := MustNew(Options{EventLog: &buf, TraceOut: &tr, IdleTimeout: 2 * time.Second})
	defer hf.Close()
	hf.InjectProbe("203.0.113.9", "10.5.1.2", 445)
	if !strings.Contains(buf.String(), `"kind":"bound"`) {
		t.Errorf("bound event not written when InjectProbe returned:\n%s", buf.String())
	}
	before := buf.writes
	hf.RunFor(time.Minute)
	// Activation (~0.4 s) and recycling (~2 s) are epochs apart.
	if got := buf.writes - before; got < 2 {
		t.Errorf("one RunFor wrote the event log %d time(s), want one per epoch that logged", got)
	}
	log := buf.String()
	for _, want := range []string{`"kind":"bound"`, `"kind":"active"`, `"kind":"recycled"`, `"addr":"10.5.1.2"`} {
		if !strings.Contains(log, want) {
			t.Errorf("event log missing %s:\n%s", want, log)
		}
	}
	if tr.writes < 2 || !strings.Contains(tr.String(), `"name":"clone"`) {
		t.Errorf("span trace not streamed before Close (%d writes):\n%s", tr.writes, tr.String())
	}
}

func TestCheckpointOnDetection(t *testing.T) {
	dir := t.TempDir()
	hf := MustNew(Options{Policy: DropAll, CheckpointDir: dir})
	defer hf.Close()
	hf.InjectExploit("203.0.113.9", "10.5.1.2")
	hf.RunFor(5 * time.Second)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("checkpoints = %d, want 1", len(entries))
	}
	if !strings.HasPrefix(entries[0].Name(), "10.5.1.2-") {
		t.Errorf("checkpoint name = %q", entries[0].Name())
	}
	// The file is a valid checkpoint with real delta content.
	f, err := os.Open(filepath.Join(dir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ck, err := vmm.ReadCheckpoint(f)
	if err != nil {
		t.Fatal(err)
	}
	if ck.IP.String() != "10.5.1.2" || len(ck.Pages) == 0 {
		t.Errorf("checkpoint: ip=%s pages=%d", ck.IP, len(ck.Pages))
	}
}

func TestCaptureThroughFacade(t *testing.T) {
	dir := t.TempDir()
	hf := MustNew(Options{Policy: ReflectSource, CaptureDir: dir, IdleTimeout: -1})
	hf.InjectProbe("203.0.113.9", "10.5.1.2", 445)
	hf.RunFor(2 * time.Second)
	hf.Close()

	in := readCapture(t, filepath.Join(dir, "in.pcap"))
	tovm := readCapture(t, filepath.Join(dir, "tovm.pcap"))
	out := readCapture(t, filepath.Join(dir, "out.pcap"))
	if len(in) != 1 || len(tovm) != 1 || len(out) != 1 {
		t.Fatalf("capture counts in=%d tovm=%d out=%d", len(in), len(tovm), len(out))
	}
	if in[0].Dst.String() != "10.5.1.2" || in[0].DstPort != 445 {
		t.Errorf("inbound capture: %+v", in[0])
	}
	// Egress capture is the SYN-ACK back to the scanner.
	if out[0].Src.String() != "10.5.1.2" || out[0].Dst.String() != "203.0.113.9" {
		t.Errorf("egress capture: %+v", out[0])
	}
	// Delivery happened ~0.5 s after arrival (the clone).
	if out[0].At <= in[0].At {
		t.Error("capture timestamps not ordered")
	}
}

// readCapture reads a whole pcap capture file as trace records.
func readCapture(t *testing.T, path string) []telescope.Record {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	src, err := ingest.NewPcapSource(f)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	var recs []telescope.Record
	for {
		var rec telescope.Record
		if err := src.Read(&rec); err == io.EOF {
			return recs
		} else if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		recs = append(recs, rec)
	}
}

// TestCaptureReplaysExploit: the inbound capture keeps what the
// attacker sent, so replaying it on a fresh farm with the same options
// infects the same target.
func TestCaptureReplaysExploit(t *testing.T) {
	dir := t.TempDir()
	const attacker, target = "198.51.100.7", "10.5.2.3"
	hf := MustNew(Options{CaptureDir: dir, IdleTimeout: -1})
	if err := hf.InjectExploit(attacker, target); err != nil {
		t.Fatal(err)
	}
	hf.RunFor(2 * time.Second)
	want := hf.profile.ExploitPayload(0)
	hf.Close()

	in := readCapture(t, filepath.Join(dir, "in.pcap"))
	if len(in) == 0 {
		t.Fatal("in.pcap holds no records")
	}
	if ex := in[0]; ex.Src.String() != attacker || ex.Dst.String() != target || !bytes.Equal(ex.Payload, want) {
		t.Fatalf("exploit record %s > %s payload %q, want %s > %s payload %q", ex.Src, ex.Dst, ex.Payload, attacker, target, want)
	}

	var infected []string
	replay := MustNew(Options{IdleTimeout: -1, Hooks: &Hooks{
		OnInfected: func(addr string, _ int) { infected = append(infected, addr) },
	}})
	defer replay.Close()
	f, err := os.Open(filepath.Join(dir, "in.pcap"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	src, err := ingest.NewPcapSource(f)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := replay.Replay(src); err != nil || n != len(in) {
		t.Fatalf("Replay: %d of %d records (%v)", n, len(in), err)
	}
	replay.RunFor(2 * time.Second)
	if len(infected) == 0 || infected[0] != target {
		t.Errorf("replayed capture infected %v, want %s first", infected, target)
	}
}

func TestMultiStageDNSEndToEnd(t *testing.T) {
	hf := MustNew(Options{
		Guest:       GuestMultiStage,
		Policy:      InternalReflect,
		IdleTimeout: -1,
	})
	defer hf.Close()
	if err := hf.InjectExploit("203.0.113.9", "10.5.1.2"); err != nil {
		t.Fatal(err)
	}
	hf.RunFor(5 * time.Second)

	// The infected guest looked its payload host up via the built-in
	// safe resolver...
	if _, tot := hf.Totals(); tot.DNSQueries == 0 {
		t.Error("safe resolver never consulted")
	}
	if hf.Stats().DNSProxied == 0 {
		t.Error("gateway did not proxy DNS")
	}
	// ...and the sinkholed stage-2 fetch landed on a fresh honeypot VM
	// inside the monitored space.
	if hf.Stats().LiveVMs < 2 {
		t.Errorf("LiveVMs = %d, want >= 2 (victim + sinkhole target)", hf.Stats().LiveVMs)
	}
}

func TestShardedGatewayThroughFacade(t *testing.T) {
	hf := MustNew(Options{GatewayShards: 4, IdleTimeout: -1, Policy: ReflectSource, TraceOut: io.Discard})
	defer hf.Close()
	domains := hf.Internals().Engine.Domains()
	if len(domains) != 4 {
		t.Fatalf("domains = %d, want 4", len(domains))
	}
	for i := 0; i < 12; i++ {
		hf.InjectProbe("203.0.113.9", "10.5.1."+strconv.Itoa(i+1), 445)
	}
	hf.RunFor(2 * time.Second)
	st := hf.Stats()
	if st.LiveVMs != 12 || st.BindingsCreated != 12 {
		t.Errorf("stats: %+v", st)
	}
	if st.OutboundToSource != 12 {
		t.Errorf("replies = %d", st.OutboundToSource)
	}
	// Twelve consecutive addresses spread evenly, every binding on the
	// shard that owns its address.
	for i, d := range domains {
		if d.G.NumBindings() != 3 {
			t.Errorf("shard %d holds %d bindings, want 3", i, d.G.NumBindings())
		}
		if name, want := d.F.Hosts()[0].Cfg.Name, "-s"+strconv.Itoa(i)+"-"; !strings.Contains(name, want) {
			t.Errorf("shard %d host named %q, want shard tag %q", i, name, want)
		}
	}
	for i := 0; i < 12; i++ {
		a := netsim.MustParseAddr("10.5.1." + strconv.Itoa(i+1))
		if d := domains[hf.Internals().Engine.Owner(a)]; d.G.Binding(a) == nil {
			t.Errorf("%s not bound on its owning shard %d", a, d.Index)
		}
	}
	// The snapshot's stage summaries merge the four shards' tracers.
	snap := hf.Snapshot()
	if got := snap.StagesMs["clone"].Count; got != 12 {
		t.Errorf("merged clone stage counts %d clones, want all 12", got)
	}
	if snap.OpenSpans < 12 {
		t.Errorf("OpenSpans = %d, want the 12 live bindings' spans", snap.OpenSpans)
	}
}
