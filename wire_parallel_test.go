package potemkin

// The tentpole proof for live parallel ingest: a honeyfarm serving real
// UDP wire traffic under Options.Parallel writes a capture pcap whose
// replay — on the single-threaded oracle or on parallel epochs, at any
// adaptive-epoch setting — reproduces the live run's merged output byte
// for byte. Determinism of a live run is a *replayable* property: the
// wire source quantizes arrivals onto a monotone virtual stream, the
// epoch feeder schedules them exactly as an offline replay would, and
// the capture records the post-clamp times, so capture + seed is a
// complete re-simulation recipe. Run under -race in CI (the live half
// exercises listener goroutines against parallel shard epochs).

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"potemkin/internal/guest"
	"potemkin/internal/ingest"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/telescope"
)

const wireSeed = 77

// wireTestTrace synthesizes a short telescope feed with one real
// exploit record spliced in near the end (sorted position preserved),
// so the live run compromises a VM and the equality checks cover
// infection state, not just binding bookkeeping. The exploit lands
// late on purpose: under InternalReflect an infection cascades
// reflections exponentially, so the window between compromise and
// trace end is kept to half a second to not swamp CI.
func wireTestTrace(t testing.TB) []telescope.Record {
	t.Helper()
	cfg := telescope.DefaultGenConfig()
	cfg.Duration = 4 * time.Second
	cfg.Rate = 250
	cfg.Seed = wireSeed
	recs, err := telescope.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prof := guest.WindowsXP()
	payload := prof.ExploitPayload(0)
	if payload == nil {
		t.Fatal("winxp profile has no exploit payload")
	}
	ex := telescope.Record{
		At:      sim.Time(3500 * time.Millisecond),
		Src:     netsim.MustParseAddr("198.51.100.77"),
		Dst:     netsim.MustParseAddr("10.5.7.20"),
		Proto:   netsim.ProtoTCP,
		SrcPort: 40000,
		DstPort: prof.ScanDstPort,
		Flags:   netsim.FlagSYN | netsim.FlagPSH,
		PayLen:  uint16(len(payload)),
		Payload: payload,
	}
	i := sort.Search(len(recs), func(i int) bool { return recs[i].At > ex.At })
	recs = append(recs, telescope.Record{})
	copy(recs[i+1:], recs[i:])
	recs[i] = ex
	return recs
}

// wireOpts builds the shared honeyfarm configuration: every run —
// live or replay — must be identically configured for byte equality.
func wireOpts(ev *bytes.Buffer) Options {
	return Options{
		Seed:          wireSeed,
		Parallel:      true,
		GatewayShards: 4,
		Servers:       4,
		Policy:        InternalReflect,
		IdleTimeout:   time.Second,
		EventLog:      ev,
	}
}

// liveWireRun serves recs over a real loopback UDP socket into a
// parallel honeyfarm via Options.Wire, capturing the feed to pcapPath.
// Returns the final stats and event-log bytes.
func liveWireRun(t *testing.T, recs []telescope.Record, listenShards int, pcapPath string) (Stats, []byte) {
	t.Helper()
	var ev bytes.Buffer
	opts := wireOpts(&ev)
	opts.Wire = &WireOptions{
		Addr:    "127.0.0.1:0",
		Shards:  listenShards,
		Capture: pcapPath,
	}
	return serveLive(t, opts, recs), ev.Bytes()
}

// serveLive serves recs losslessly over a real loopback UDP socket into
// a honeyfarm built from opts, which declare the wire, passing serveOpts
// to Serve. It returns the final stats, read before the farm closes.
func serveLive(t *testing.T, opts Options, recs []telescope.Record, serveOpts ...ReplayOption) Stats {
	t.Helper()
	hf := MustNew(opts)
	defer hf.Close()
	srv, err := hf.StartWire()
	if err != nil {
		t.Fatalf("StartWire: %v", err)
	}
	type serveResult struct {
		ws  WireStats
		err error
	}
	done := make(chan serveResult, 1)
	go func() {
		ws, err := srv.Serve(serveOpts...)
		done <- serveResult{ws, err}
	}()

	s, err := ingest.DialWire(srv.Addr().String(), 1, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sent := sendChunked(t, s, srv, recs)
	waitUntilWire(t, func() bool { return srv.Stats().Ingest.Received == sent })
	srv.Stop()
	var res serveResult
	select {
	case res = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Serve did not finish")
	}
	if res.err != nil {
		t.Fatalf("Serve: %v", res.err)
	}
	ig := res.ws.Ingest
	if ig.Dropped != 0 || ig.FrameErrors != 0 {
		t.Fatalf("transport was lossy, replayability void: %+v", ig)
	}
	// The reader accounts sequence numbers before it shards, so a
	// lossless feed reports no gap however many queues it is split over.
	if ig.SeqGaps != 0 {
		t.Fatalf("unexpected sequence gaps on a lossless %d-shard feed: %+v", opts.Wire.Shards, ig)
	}
	if ig.Delivered != sent {
		t.Fatalf("delivered %d of %d", ig.Delivered, sent)
	}
	if res.ws.Injected != int(sent) {
		t.Fatalf("injected %d of %d", res.ws.Injected, sent)
	}
	stats := hf.Stats()
	hf.Close()
	return stats
}

// replayWireRun replays a live run's capture pcap on an identically
// configured honeyfarm. oracle switches the engine to single-threaded
// epochs — the strongest equality claim: live parallel wire traffic
// reproduced by a sequential offline re-simulation. A non-zero
// adaptive caps the epoch width (ShardEngine.SetAdaptive).
func replayWireRun(t *testing.T, pcapPath string, adaptive int, oracle bool) (Stats, []byte) {
	t.Helper()
	var ev bytes.Buffer
	hf := MustNew(wireOpts(&ev))
	defer hf.Close()
	if adaptive != 0 {
		hf.Internals().Engine.SetAdaptive(adaptive)
	}
	if oracle {
		hf.Internals().Engine.SetSequential(true)
	}
	f, err := os.Open(pcapPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	src, err := ingest.NewPcapSource(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hf.Replay(src); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if src.Skipped != 0 {
		t.Fatalf("capture pcap had %d unparseable frames", src.Skipped)
	}
	stats := hf.Stats()
	hf.Close()
	return stats, ev.Bytes()
}

// sendChunked sends recs unpaced to srv in chunks of 1024 records,
// waiting after each until the farm has consumed it, so the bounded
// queues never overflow: byte equality is only claimed for lossless
// transport. It returns how many records it sent.
func sendChunked(t *testing.T, s *ingest.WireSender, srv *WireServer, recs []telescope.Record) uint64 {
	t.Helper()
	var sent uint64
	for len(recs) > 0 {
		chunk := recs[:min(len(recs), 1024)]
		recs = recs[len(chunk):]
		n, _, err := ingest.Replay(s, &telescope.SliceSource{Recs: chunk}, ingest.ReplayOptions{MaxRate: true})
		if err != nil {
			t.Fatal(err)
		}
		sent += n
		waitUntilWire(t, func() bool { return srv.Stats().Ingest.Delivered == sent })
	}
	return sent
}

func waitUntilWire(t testing.TB, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 10s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWireParallelLiveReplay is the acceptance test for live parallel
// ingest: a -parallel honeyfarm serves real loopback wire traffic, and
// its capture pcap replays byte-identically on both the sequential
// oracle and the parallel engine.
func TestWireParallelLiveReplay(t *testing.T) {
	recs := wireTestTrace(t)
	pcap := filepath.Join(t.TempDir(), "live.pcap")
	liveStats, liveEv := liveWireRun(t, recs, 1, pcap)

	if liveStats.InfectedVMs == 0 && liveStats.DetectedInfected == 0 {
		t.Errorf("vacuous live run, exploit never landed: %+v", liveStats)
	}
	if liveStats.DeliveredToVM == 0 || liveStats.BindingsCreated == 0 {
		t.Errorf("vacuous live run: %+v", liveStats)
	}

	oracleStats, oracleEv := replayWireRun(t, pcap, 0, true)
	if !reflect.DeepEqual(liveStats, oracleStats) {
		t.Errorf("live diverges from sequential-oracle replay:\nlive:   %+v\noracle: %+v", liveStats, oracleStats)
	}
	if !bytes.Equal(liveEv, oracleEv) {
		t.Errorf("event logs diverge from oracle replay (live %d bytes, oracle %d bytes)", len(liveEv), len(oracleEv))
	}

	parStats, parEv := replayWireRun(t, pcap, 0, false)
	if !reflect.DeepEqual(liveStats, parStats) {
		t.Errorf("live diverges from parallel replay:\nlive: %+v\npar:  %+v", liveStats, parStats)
	}
	if !bytes.Equal(liveEv, parEv) {
		t.Errorf("event logs diverge from parallel replay (live %d bytes, par %d bytes)", len(liveEv), len(parEv))
	}
}

// TestWireParallelAdaptiveSnapback replays a live capture at the two
// adaptive-epoch extremes — the pinned 1 ms grid and full 64-cell
// widening. The capture is sorted by construction (the wire source is
// monotone), so the grid-independence property of sorted replay sources
// extends to live wire runs: widened epochs snap back exactly where
// live arrivals landed.
func TestWireParallelAdaptiveSnapback(t *testing.T) {
	recs := wireTestTrace(t)
	pcap := filepath.Join(t.TempDir(), "live.pcap")
	liveStats, liveEv := liveWireRun(t, recs, 1, pcap)

	for _, adaptive := range []int{1, 64} {
		stats, ev := replayWireRun(t, pcap, adaptive, false)
		if !reflect.DeepEqual(liveStats, stats) {
			t.Errorf("SetAdaptive(%d) replay diverges from live run:\nlive:   %+v\nreplay: %+v", adaptive, liveStats, stats)
		}
		if !bytes.Equal(liveEv, ev) {
			t.Errorf("SetAdaptive(%d) event log diverges (live %d bytes, replay %d bytes)", adaptive, len(liveEv), len(ev))
		}
	}
}

// TestWireParallelMultiShardListener runs the live feed through two
// listener shards. Cross-shard arrival interleaving makes the live record
// order scheduling-dependent, so the run is compared against its *own*
// capture (the replayability contract), not a fixed reference.
func TestWireParallelMultiShardListener(t *testing.T) {
	recs := wireTestTrace(t)
	pcap := filepath.Join(t.TempDir(), "live.pcap")
	liveStats, liveEv := liveWireRun(t, recs, 2, pcap)

	oracleStats, oracleEv := replayWireRun(t, pcap, 0, true)
	if !reflect.DeepEqual(liveStats, oracleStats) {
		t.Errorf("2-shard live run diverges from its own capture's oracle replay:\nlive:   %+v\noracle: %+v", liveStats, oracleStats)
	}
	if !bytes.Equal(liveEv, oracleEv) {
		t.Errorf("2-shard event logs diverge (live %d bytes, oracle %d bytes)", len(liveEv), len(oracleEv))
	}
}

// TestWireSequentialOptionsAPI covers Options.Wire + StartWire/Serve on
// the default one-shard farm: a live feed reaches the same state as an
// in-process replay of the same trace.
func TestWireSequentialOptionsAPI(t *testing.T) {
	recs := wireTestTrace(t)
	opts := Options{Seed: wireSeed, Policy: InternalReflect, IdleTimeout: time.Second}

	// Reference: plain in-process replay on an identically-seeded farm.
	ref := MustNew(opts)
	if _, err := ref.Replay(SliceSource(recs)); err != nil {
		t.Fatal(err)
	}
	refStats := ref.Stats()
	ref.Close()

	opts.Wire = &WireOptions{Addr: "127.0.0.1:0"}
	if got := serveLive(t, opts, recs); !reflect.DeepEqual(refStats, got) {
		t.Errorf("sequential wire serve diverges from in-process replay:\nref:  %+v\nwire: %+v", refStats, got)
	}
}
