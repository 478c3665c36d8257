package potemkin

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"potemkin/internal/ingest"
	"potemkin/internal/telescope"
)

// TestValidateReportsAllProblems checks that Validate collects every
// configuration error in one pass, one per line, instead of failing on
// the first.
func TestValidateReportsAllProblems(t *testing.T) {
	bad := Options{
		Servers:        -3,
		MonitoredSpace: "garbage",
		Parallel:       true,
	}
	err := bad.Validate()
	if err == nil {
		t.Fatal("Validate accepted a broken configuration")
	}
	msg := err.Error()
	for _, want := range []string{
		"negative server count",
		"invalid MonitoredSpace",
		"Parallel requires GatewayShards >= 2",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("error missing %q:\n%s", want, msg)
		}
	}
	if lines := strings.Split(msg, "\n"); len(lines) != 3 {
		t.Errorf("want 3 problem lines, got %d:\n%s", len(lines), msg)
	}
	for _, line := range strings.Split(msg, "\n") {
		if !strings.HasPrefix(line, "potemkin: ") {
			t.Errorf("line missing package prefix: %q", line)
		}
	}

	// New must route through Validate.
	if _, err := New(bad); err == nil || !strings.Contains(err.Error(), "negative server count") {
		t.Errorf("New did not surface Validate errors: %v", err)
	}
	// The zero value (all defaults) must validate clean.
	if err := (Options{}).Validate(); err != nil {
		t.Errorf("zero Options failed Validate: %v", err)
	}
}

// TestValidateParallelConstraints covers the shard and Parallel rules.
func TestValidateParallelConstraints(t *testing.T) {
	err := Options{Parallel: true}.Validate()
	if err == nil {
		t.Fatal("Parallel with one shard validated clean")
	}
	if !strings.Contains(err.Error(), "GatewayShards >= 2") {
		t.Errorf("error missing %q:\n%v", "GatewayShards >= 2", err)
	}
	// Every farm runs the epoch loop, so the epoch timeline and the
	// adaptive-epoch cap apply without Parallel too.
	if hf, err := New(Options{EpochLog: &bytes.Buffer{}}); err != nil {
		t.Errorf("EpochLog without Parallel should validate: %v", err)
	} else {
		hf.Internals().Engine.SetAdaptive(1)
		hf.RunFor(10 * time.Millisecond)
		hf.Close()
	}
	// Every shard is a domain with its own slice of the servers,
	// Parallel or not, and the complaint joins the collect-all list.
	for _, parallel := range []bool{false, true} {
		err := (Options{Parallel: parallel, GatewayShards: 8, MonitoredSpace: "garbage"}).Validate()
		if err == nil || !strings.Contains(err.Error(), "at least one server per shard") ||
			!strings.Contains(err.Error(), "invalid MonitoredSpace") {
			t.Errorf("Parallel=%v: 8 shards over 4 default servers should fail alongside the bad space: %v", parallel, err)
		}
		if err := (Options{Parallel: parallel, GatewayShards: 4}).Validate(); err != nil {
			t.Errorf("Parallel=%v: 4 shards over 4 default servers should validate: %v", parallel, err)
		}
	}
}

// TestHooksStruct checks the consolidated Hooks callbacks fire.
func TestHooksStruct(t *testing.T) {
	var viaHooks []string
	var infected int
	hf := MustNew(Options{
		Policy: ReflectSource,
		Hooks: &Hooks{
			OnEgress:   func(p string) { viaHooks = append(viaHooks, p) },
			OnInfected: func(addr string, gen int) { infected++ },
		},
	})
	defer hf.Close()
	hf.InjectProbe("203.0.113.9", "10.5.1.2", 445)
	hf.InjectExploit("198.51.100.7", "10.5.2.3")
	hf.RunFor(2 * time.Second)
	if len(viaHooks) == 0 {
		t.Error("Hooks.OnEgress never fired")
	}
	if infected == 0 {
		t.Error("Hooks.OnInfected never fired")
	}
}

// TestNewErrorClosesCaptures is the regression test for the capture
// leak: when New fails after a shard domain already created its trace
// files, the files must be flushed and closed on the way out — a valid
// (empty) capture, not a zero-byte file with its header stuck in a
// buffer. Shard 0 opens its capture; shard 1's cannot, because a
// regular file stands where its directory would go.
func TestNewErrorClosesCaptures(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "shard-1"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := New(Options{CaptureDir: dir, GatewayShards: 2})
	if err == nil || !strings.Contains(err.Error(), "shard-1") {
		t.Fatalf("New = %v, want shard 1's capture to fail (its directory is a file)", err)
	}
	for _, name := range []string{"in.pcap", "tovm.pcap", "out.pcap"} {
		f, err := os.Open(filepath.Join(dir, "shard-0", name))
		if err != nil {
			t.Fatalf("capture shard-0/%s missing: %v", name, err)
		}
		r, err := ingest.NewPcapSource(f)
		if err != nil {
			t.Errorf("capture shard-0/%s not flushed: %v", name, err)
		} else if err := r.Read(&telescope.Record{}); err == nil {
			t.Errorf("capture shard-0/%s unexpectedly has records", name)
		}
		f.Close()
	}
}

// TestReplayHaltStopsEarly checks WithHalt actually cuts the replay
// short, and that a halt that never fires and an epilogue spelled out
// at its default change nothing.
func TestReplayHaltStopsEarly(t *testing.T) {
	run := func(opts ...ReplayOption) (int, int, Stats) {
		hf := MustNew(Options{Seed: 5, IdleTimeout: time.Second})
		defer hf.Close()
		recs, err := hf.GenerateTrace(time.Second, 400)
		if err != nil {
			t.Fatalf("GenerateTrace: %v", err)
		}
		n, err := hf.Replay(SliceSource(recs), opts...)
		if err != nil {
			t.Fatalf("Replay: %v", err)
		}
		hf.RunFor(2 * time.Second)
		return n, len(recs), hf.Stats()
	}
	calls := 0
	n, total, _ := run(WithHalt(func() bool {
		calls++
		return calls > 10
	}))
	if n == 0 || n >= total {
		t.Errorf("halt did not stop replay early: injected %d of %d", n, total)
	}

	refN, _, refStats := run()
	if refN != total || refStats.InboundPackets == 0 {
		t.Fatalf("vacuous reference run: n=%d of %d, stats=%v", refN, total, refStats)
	}
	n, _, stats := run(WithHalt(func() bool { return false }), WithEpilogue(time.Millisecond))
	if n != refN || stats != refStats {
		t.Errorf("default-valued options changed the run: injected %d, want %d\n%v\nvs\n%v", n, refN, stats, refStats)
	}
}

// parallelFacadeRun drives the same workload through a four-shard
// honeyfarm and returns the stats, snapshot JSON, and event-log bytes.
// Without parallel the shard engine runs its epochs single-threaded —
// the byte-identity oracle.
func parallelFacadeRun(t *testing.T, parallel bool) (Stats, []byte, []byte) {
	t.Helper()
	var ev bytes.Buffer
	capDir := t.TempDir()
	hf := MustNew(Options{
		Seed:          9,
		Parallel:      parallel,
		GatewayShards: 4,
		Policy:        InternalReflect,
		Guest:         GuestMultiStage,
		IdleTimeout:   time.Second,
		EventLog:      &ev,
		CaptureDir:    capDir,
	})
	// One exploit is enough: the multi-stage infection resolves its
	// rendezvous name and fetches a second stage, so the safe-resolver
	// answer and the reflected fetch both cross the epoch barrier. A
	// longer run would cascade reflections exponentially and swamp CI.
	if err := hf.InjectExploit("198.51.100.10", "10.5.7.20"); err != nil {
		t.Fatalf("InjectExploit: %v", err)
	}
	recs, err := hf.GenerateTrace(500*time.Millisecond, 100)
	if err != nil {
		t.Fatalf("GenerateTrace: %v", err)
	}
	if _, err := hf.Replay(SliceSource(recs)); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	hf.RunFor(1500 * time.Millisecond)
	stats := hf.Stats()
	snap, err := hf.MarshalSnapshot()
	if err != nil {
		t.Fatalf("MarshalSnapshot: %v", err)
	}
	// Several shards buffer their logs until Close writes them in shard
	// order: streaming them mid-run would interleave by epoch grid.
	if ev.Len() != 0 {
		t.Errorf("four-shard event log wrote %d bytes before Close", ev.Len())
	}
	hf.Close()
	// Likewise each shard captures into its own subdirectory.
	for i := 0; i < 4; i++ {
		if _, err := os.Stat(filepath.Join(capDir, fmt.Sprintf("shard-%d", i), "in.pcap")); err != nil {
			t.Errorf("four-shard capture layout: %v", err)
		}
	}
	if _, err := os.Stat(filepath.Join(capDir, "in.pcap")); err == nil {
		t.Error("four-shard capture also wrote a flat in.pcap")
	}
	return stats, snap, ev.Bytes()
}

// TestParallelFacade checks Options.Parallel end to end: GatewayShards
// alone builds the same domains, split servers and 1 ms cross-shard
// latency included, so the run with Parallel set matches the one
// without byte for byte, and the workload is not vacuous.
func TestParallelFacade(t *testing.T) {
	seqStats, seqSnap, seqEv := parallelFacadeRun(t, false)
	parStats, parSnap, parEv := parallelFacadeRun(t, true)
	if !reflect.DeepEqual(seqStats, parStats) {
		t.Errorf("stats diverge:\nseq: %v\npar: %v", seqStats, parStats)
	}
	if !bytes.Equal(seqSnap, parSnap) {
		t.Errorf("snapshots diverge:\nseq: %s\npar: %s", seqSnap, parSnap)
	}
	if !bytes.Equal(seqEv, parEv) {
		t.Errorf("event logs diverge (seq %d bytes, par %d bytes)", len(seqEv), len(parEv))
	}
	if parStats.InfectedVMs == 0 && parStats.DetectedInfected == 0 && parStats.BindingsCreated == 0 {
		t.Errorf("vacuous parallel run: %v", parStats)
	}
	if parStats.DNSProxied == 0 {
		t.Errorf("multi-stage guests never used the safe resolver: %v", parStats)
	}
}

// TestParallelInternals checks the Internals surface in Parallel mode:
// the same engine, one domain per shard, servers split between them.
func TestParallelInternals(t *testing.T) {
	hf := MustNew(Options{Parallel: true, GatewayShards: 2, Servers: 2})
	defer hf.Close()
	eng := hf.Internals().Engine
	if eng == nil {
		t.Fatal("Internals.Engine nil in Parallel mode")
	}
	if len(eng.Domains()) != 2 {
		t.Fatalf("domains = %d, want 2", len(eng.Domains()))
	}
	for i, d := range eng.Domains() {
		if len(d.F.Hosts()) != 1 {
			t.Errorf("shard %d has %d servers, want 1", i, len(d.F.Hosts()))
		}
	}
}
