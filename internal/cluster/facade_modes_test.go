package cluster

// Cross-mode tests of the facade: its Replay, RunScenario, Serve and
// WithProgress against the engine's runs, on the harness in
// modes_test.go.

import (
	"fmt"
	"io"
	"sort"
	"testing"
	"time"

	"potemkin"
	"potemkin/internal/guest"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/telescope"
	"potemkin/internal/worm"
)

const wireSeed = 77

// wireTestTrace is four seconds of radiation at 250 pps with one
// exploit spliced in at 3.5 s, so a run compromises a VM and the
// comparisons cover infection state, not just binding bookkeeping. The
// exploit lands late on purpose: under InternalReflect an infection
// cascades reflections exponentially, so the window between compromise
// and trace end is kept to half a second to not swamp CI.
func wireTestTrace(t *testing.T) []telescope.Record {
	return withExploit(testRecords(t, wireSeed, 4*time.Second, 250), 3500*time.Millisecond, "198.51.100.77", "10.5.7.20")
}

// withExploit returns recs with the Windows XP exploit from src to dst
// spliced in at at, sorted position kept, as the facade's InjectExploit
// would send it.
func withExploit(recs []telescope.Record, at time.Duration, src, dst string) []telescope.Record {
	prof := guest.WindowsXP()
	payload := prof.ExploitPayload(0)
	ex := telescope.Record{
		At:      sim.Time(at),
		Src:     netsim.MustParseAddr(src),
		Dst:     netsim.MustParseAddr(dst),
		Proto:   netsim.ProtoTCP,
		SrcPort: 40000,
		DstPort: prof.ScanDstPort,
		Flags:   netsim.FlagSYN | netsim.FlagPSH,
		PayLen:  uint16(len(payload)),
		Payload: payload,
	}
	i := sort.Search(len(recs), func(i int) bool { return recs[i].At > ex.At })
	out := append(recs[:i:i], ex)
	return append(out, recs[i:]...)
}

// TestParallelFacadeMatchesEngine: Options.Parallel builds the engine's
// domains, split servers and 1 ms cross-shard latency included, so the
// facade's parallel run matches the engine's, sequential and parallel,
// byte for byte: stats, snapshot, event log, span trace and capture
// files. The workload: four shards of multi-stage guests and one
// exploit at the start, whose infection resolves its rendezvous name and
// fetches a second stage, so the safe resolver's answer and the
// reflected fetch both cross the epoch barrier; half a second of
// radiation at 100 pps, then 1.5 s more. A longer run would cascade
// reflections exponentially and swamp CI. The root's TestParallelFacade
// checks the facade's own run.
func TestParallelFacadeMatchesEngine(t *testing.T) {
	const seed = 9
	sp := spec{
		opts: potemkin.Options{Seed: seed, GatewayShards: 4, Policy: potemkin.InternalReflect,
			Guest: potemkin.GuestMultiStage, IdleTimeout: time.Second, EventLog: io.Discard, TraceOut: io.Discard},
		src:    records(withExploit(testRecords(t, seed, 500*time.Millisecond, 100), 0, "198.51.100.10", "10.5.7.20")),
		runFor: 1500 * time.Millisecond,
		files:  true,
	}
	runs := runModes(t, sp, "seq", "par", "facade")
	if tot := runs[0].totals; tot.Farm.Infections == 0 || tot.Gateway.OutDNSProxied == 0 {
		t.Errorf("vacuous run: %d infections, %d DNS queries proxied", tot.Farm.Infections, tot.Gateway.OutDNSProxied)
	}
	if len(runs[0].art["events"]) == 0 || len(runs[0].art["trace"]) == 0 {
		t.Error("event log or trace empty")
	}
	for _, r := range runs[1:] {
		requireSame(t, runs[0], r)
	}
}

// TestWithProgressMatchesAcrossModes: the progress observer's ticks —
// barrier times and totals — are the same from the sequential engine as
// through each facade entry point that honours WithProgress, its shards
// on goroutines: Replay, a drop-all worm outbreak streamed from the
// epidemic's source, RunScenario and Serve, at two and four shards. It
// fires at the first barrier at or past each multiple of its interval,
// WithProgress(0) installs nothing, and it only reads: the facade's run
// without it ends the same.
func TestWithProgressMatchesAcrossModes(t *testing.T) {
	multistage, err := potemkin.LoadScenario("multistage")
	if err != nil {
		t.Fatal(err)
	}
	wcfg := worm.DefaultConfig()
	wcfg.InitialInfected = 2000
	wcfg.ScanRate = 50
	wcfg.ExploitPayload = guest.WindowsXP().ExploitPayload(0)
	feed := records(wireTestTrace(t))
	base := potemkin.Options{Seed: wireSeed, Policy: potemkin.InternalReflect, IdleTimeout: time.Second}
	entries := []struct {
		name, mode string
		sp         spec
	}{
		{"Replay", "facade", spec{opts: base, src: feed, progress: 500 * time.Millisecond}},
		{"Outbreak", "facade", spec{opts: potemkin.Options{Seed: 7, Policy: potemkin.DropAll},
			src:      func() telescope.Source { return worm.New(wcfg).Source(sim.Start.Add(20 * time.Second)) },
			progress: 5 * time.Second}},
		{"RunScenario", "facade", spec{opts: potemkin.Options{Seed: 9, MonitoredSpace: "10.5.0.0/22", Servers: 4,
			Policy: potemkin.InternalReflect, Scenario: multistage}, progress: time.Second}},
		{"Serve", "wire", spec{opts: base, src: feed, progress: 500 * time.Millisecond}},
	}
	for _, e := range entries {
		for _, shards := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", e.name, shards), func(t *testing.T) {
				sp := e.sp
				sp.opts.GatewayShards = shards
				runs := runModes(t, sp, "seq", e.mode)
				seq, every := runs[0].ticks, sim.Time(sp.progress)
				if len(seq) < 2 {
					t.Fatalf("%d ticks at every %v", len(seq), sp.progress)
				}
				for i, tk := range seq {
					// Tick i is the first barrier at or past the multiple
					// it reports, and the multiples do not repeat.
					if m := tk.now - tk.now%every; i > 0 && m <= seq[i-1].now-seq[i-1].now%every {
						t.Errorf("tick %d at %v reports the multiple %v again", i, tk.now, m)
					}
				}
				if seq[0].now < every {
					t.Errorf("the first tick, at %v, comes before the first multiple of %v", seq[0].now, sp.progress)
				}
				if tot := runs[0].totals; tot.Farm.Infections == 0 || sp.opts.Policy == potemkin.DropAll && tot.Gateway.OutDropped == 0 {
					t.Errorf("vacuous run: %d infections, %d packets dropped", tot.Farm.Infections, tot.Gateway.OutDropped)
				}
				requireSame(t, runs[0], runs[1])
				sp.progress = 0
				plain := runModes(t, sp, e.mode)[0]
				if len(plain.ticks) != 0 {
					t.Errorf("WithProgress(0) ticked %d times", len(plain.ticks))
				}
				plain.mode += " without progress"
				requireSame(t, runs[1], plain, "ticks")
			})
		}
	}
}

// TestMetricsDeterminism: the registry, epoch_* aside, holds the same
// bytes after two same-seed runs, and after a parallel run and its
// sequential oracle, because every instrument is an order-independent
// integer accumulation.
func TestMetricsDeterminism(t *testing.T) {
	sp := spec{
		opts:   potemkin.Options{Seed: 9, Metrics: true, IdleTimeout: time.Second},
		src:    records(testRecords(t, 9, 2*time.Second, 200)),
		runFor: 2 * time.Second,
	}
	runs := runModes(t, sp, "seq", "seq")
	requireSame(t, runs[0], runs[1])
	sp.opts.GatewayShards = 4
	runs = runModes(t, sp, "seq", "par")
	if len(runs[1].art["registry"]) <= 2 {
		t.Error("vacuous parallel registry")
	}
	requireSame(t, runs[0], runs[1])
}

// TestWireSequentialOptionsAPI: Options.Wire with StartWire and Serve on
// the default one-shard farm reaches the same state as the facade's
// Replay of the same trace, an exploit included.
func TestWireSequentialOptionsAPI(t *testing.T) {
	sp := spec{opts: potemkin.Options{Seed: wireSeed, Policy: potemkin.InternalReflect, IdleTimeout: time.Second},
		src: records(wireTestTrace(t))}
	runs := runModes(t, sp, "facade", "wire")
	requireSame(t, runs[0], runs[1])
}

// Live parallel ingest: a farm serving real loopback wire traffic under
// Options.Parallel writes a capture whose replay, sequential or
// parallel, at any epoch cap, reproduces the live run byte for byte.
// The wire source quantizes arrivals onto a monotone virtual stream, the
// epoch feeder schedules them exactly as a replay would, and the capture
// records the times it scheduled, so capture and seed re-simulate the
// run. CI runs these under -race: listener goroutines against parallel
// shard epochs.

// liveWire is the live-ingest spec: four shards over four servers
// serving the wire test trace through listenShards listener shards,
// with the event log on.
func liveWire(t *testing.T, listenShards int) spec {
	return spec{
		opts: potemkin.Options{Seed: wireSeed, GatewayShards: 4, Servers: 4, Policy: potemkin.InternalReflect,
			IdleTimeout: time.Second, EventLog: io.Discard, Wire: &potemkin.WireOptions{Addr: "127.0.0.1:0", Shards: listenShards}},
		src: records(wireTestTrace(t)),
	}
}

// TestWireParallelLiveReplay: the live run's capture replays to the
// live run's bytes on the sequential oracle and on parallel epochs.
func TestWireParallelLiveReplay(t *testing.T) {
	sp := liveWire(t, 1)
	live := runModes(t, sp, "wire")[0]
	if tot := live.totals; tot.InfectedVMs == 0 && tot.Gateway.DetectedInfected == 0 ||
		tot.Gateway.DeliveredToVM == 0 || tot.Gateway.BindingsCreated == 0 {
		t.Errorf("vacuous live run: %+v", tot.Gateway)
	}
	sp.opts.Wire, sp.src = nil, records(readRecords(t, live.art["files/wire.pcap"]))
	for _, r := range runModes(t, sp, "seq", "par") {
		requireSame(t, live, r, "files/wire.pcap")
	}
}

// TestWireParallelAdaptiveSnapback replays a live capture at the two
// epoch caps at the extremes, the pinned 1 ms grid and 64 cells. The
// capture is sorted by construction, so the grid independence of a
// sorted replay extends to live runs: widened epochs snap back exactly
// where live arrivals landed.
func TestWireParallelAdaptiveSnapback(t *testing.T) {
	sp := liveWire(t, 1)
	live := runModes(t, sp, "wire")[0]
	sp.opts.Wire, sp.src = nil, records(readRecords(t, live.art["files/wire.pcap"]))
	for _, adaptive := range []int{1, 64} {
		sp.adaptive = adaptive
		r := runModes(t, sp, "par")[0]
		r.mode += fmt.Sprintf(" at adaptive=%d", adaptive)
		requireSame(t, live, r, "files/wire.pcap")
	}
}

// TestWireParallelMultiShardListener serves the feed through two
// listener shards. Their arrival interleaving follows goroutine
// scheduling, so the run is compared with its own capture's replay, not
// with a fixed reference.
func TestWireParallelMultiShardListener(t *testing.T) {
	sp := liveWire(t, 2)
	live := runModes(t, sp, "wire")[0]
	sp.opts.Wire, sp.src = nil, records(readRecords(t, live.art["files/wire.pcap"]))
	requireSame(t, live, runModes(t, sp, "seq")[0], "files/wire.pcap")
}
