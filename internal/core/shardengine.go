package core

// ShardEngine runs one gateway shard plus its slice of farm servers per
// simulation domain — its own kernel, gateway, farm, and safe resolver
// — and advances the domains together under a sim.ParallelRunner with
// conservative epoch barriers. The only traffic that crosses domains is
// internal reflection to an address another shard owns, and that
// re-injection already pays the honeyfarm's minimum internal latency
// (one millisecond, the same delay the facade charges DNS answers), so
// the lookahead budget is free: a cross-shard packet sent at t is
// delivered at t+lookahead, which by construction lands at or after the
// next epoch barrier. DNS answers return to the querying VM (always
// shard-local) and recycler messages stay inside the domain that owns
// both the binding and the server, so neither needs the barrier.
//
// A cross-shard packet is data on the engine's sim.Local, handed at the
// barrier to the destination's ShardDomain.Deliver: the one way a packet
// enters a domain's gateway through the event heap.
//
// With identical configuration and seed, the engine produces
// byte-identical output (stats, event log, trace) whether the epochs
// run on goroutines or sequentially on one thread — see
// TestShardEngineParallelMatchesSequential and the determinism argument
// in DESIGN.md "Parallel execution".
//
// Domain construction is factored out as NewShardDomain so that
// internal/cluster workers can build exactly the domains they own (same
// seeds, same sinks, same farm split) in a separate process. A worker
// exchanges its own shards' cross-shard traffic on the same in-process
// transport and hands the rest to the coordinator — the transport the
// same runner loop drives there; see DESIGN.md "Cluster execution".

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"potemkin/internal/dns"
	"potemkin/internal/farm"
	"potemkin/internal/fault"
	"potemkin/internal/free"
	"potemkin/internal/gateway"
	"potemkin/internal/guest"
	"potemkin/internal/mem"
	"potemkin/internal/metrics"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/telescope"
	"potemkin/internal/trace"
)

// sinkArenaCap is the initial capacity of a per-domain buffered sink:
// big enough that a typical benchmark run never regrows, small enough
// not to matter when the sink goes unused.
const sinkArenaCap = 64 << 10

// Lookahead is the epoch length and the minimum cross-shard latency:
// the honeyfarm's one-millisecond internal re-injection delay.
const Lookahead = time.Millisecond

// ShardEngineConfig parameterizes a ShardEngine.
type ShardEngineConfig struct {
	// Shards is the number of domains (>= 1). The monitored space is
	// partitioned by address index mod Shards.
	Shards int
	// Parallel runs each domain's epoch on its own goroutine; false is
	// the single-threaded oracle that produces identical bytes.
	Parallel bool
	// Seed derives every domain's kernel seed deterministically.
	Seed uint64

	// Gateway is the per-shard gateway template. Space must be set;
	// EventSink, Tracer, Capture, ExternalOut, and OnDetected must be
	// left nil — the engine installs per-domain sinks (see EventLog,
	// TraceOut, CaptureDir below) so output stays deterministic.
	Gateway gateway.Config
	// Farm is the farm template; Servers is the total across all
	// shards (split as evenly as possible, at least one per shard).
	Farm farm.Config

	// Fault, when non-nil, attaches a fault injector to every domain —
	// the same script each, every random draw from the domain's own
	// seeded "fault" stream — so the fault schedule is a pure
	// function of the seed in sequential, parallel, and cluster runs
	// alike. Script server indices address the domain's farm slice, and
	// script offsets count from the domain's construction at clock 0.
	Fault *fault.Config

	// EventLog, when non-nil, receives the forensic event logs of all
	// shards, buffered per domain. One domain writes its buffer through
	// at every epoch boundary (and whenever a call that can log
	// returns); several keep theirs until Close and write them in shard
	// order, so the bytes are a pure function of the seed either way.
	EventLog io.Writer
	// TraceOut likewise receives the per-domain span traces, whose
	// trace and span IDs are unique across shards (see package trace).
	TraceOut io.Writer

	// Metrics, when non-nil, is the live-telemetry registry. The
	// domains count in their Stats structs and Histograms and nowhere
	// else; the engine publishes the cross-domain merges (see StatsView)
	// from its after-epoch hook every second of simulated time, and
	// whenever an entry point that advances or mutates the farm returns —
	// so a read at rest is exact. Only the epoch profiler records into it
	// directly.
	Metrics *metrics.Registry
	// EpochLog, when non-nil, receives the JSONL epoch timeline (one
	// metrics.EpochSample per line) for inspect epochs. Enables the
	// epoch profiler even without Metrics. Wall-clock timings are
	// observability-only — they never feed back into sim state.
	EpochLog io.Writer

	// CaptureDir, when set, is where each domain records its gateway's
	// traffic as the pcap savefiles in.pcap, tovm.pcap and out.pcap: in
	// the directory itself with one shard, in its shard-<i>
	// subdirectory above one.
	CaptureDir string
	// CheckpointDir, when set, is where each domain saves the delta
	// checkpoint of every VM its scan detector flags, as
	// <addr>-<t>.ckpt.
	CheckpointDir string

	// OnDetected, OnInfected, and OnEgress observe shard activity. In
	// parallel mode they are invoked from shard goroutines — they must
	// be safe for concurrent use and their invocation order across
	// shards is not deterministic (the simulation itself stays exactly
	// reproducible; only the interleaving of these observer calls
	// varies).
	OnDetected func(now sim.Time, addr netsim.Addr, distinctTargets int)
	OnInfected func(now sim.Time, in *guest.Instance)
	OnEgress   func(now sim.Time, pkt *netsim.Packet)
}

// Validate reports every structural problem with the config.
func (cfg ShardEngineConfig) Validate() error {
	var errs []error
	if cfg.Shards < 1 {
		errs = append(errs, fmt.Errorf("core: shard engine needs at least 1 shard, got %d", cfg.Shards))
	}
	if cfg.Shards >= 1 && cfg.Farm.Servers < cfg.Shards {
		errs = append(errs, fmt.Errorf("core: %d servers cannot cover %d shards (need one per shard)",
			cfg.Farm.Servers, cfg.Shards))
	}
	if cfg.Gateway.EventSink != nil || cfg.Gateway.Tracer != nil || cfg.Gateway.Capture != nil ||
		cfg.Gateway.ExternalOut != nil || cfg.Gateway.OnDetected != nil {
		errs = append(errs, errors.New("core: shard engine installs its own gateway sinks; leave them nil in the template"))
	}
	return errors.Join(errs...)
}

// OwnerOf maps addr onto its owning shard: addresses in space partition
// by index mod shards, addresses outside route to shard 0 (so they are
// counted somewhere deterministic). The cluster coordinator and every
// worker use this same function, which is what makes remote routing
// agree with the in-process engine.
func OwnerOf(space netsim.Prefix, shards int, addr netsim.Addr) int {
	if !space.Contains(addr) {
		return 0
	}
	return int(space.Index(addr) % uint64(shards))
}

// CrossSend delivers a cross-shard packet emitted by a domain at now,
// destined for shard dst. The in-process engine queues it on its
// transport for the barrier; a cluster worker does too when it owns
// dst, and otherwise serializes it into the epoch outbox for the
// coordinator to forward.
type CrossSend func(now sim.Time, dst int, pkt *netsim.Packet)

// ShardDomain is one shard's isolated simulation domain.
type ShardDomain struct {
	Index    int
	K        *sim.Kernel
	G        *gateway.Gateway
	F        *farm.Farm
	Resolver *dns.Resolver
	// Fault is the domain's injector (nil unless the config asks for
	// one); it draws only from this domain's seeded stream.
	Fault *fault.Injector

	// EventBuf and TraceBuf hold the domain's buffered forensic event
	// log and span trace (nil when the config does not collect them).
	// They are grow-once arenas appended by this domain only and
	// flushed in shard order — by the ShardEngine locally (see
	// ShardEngineConfig.EventLog), or by the cluster coordinator after
	// fetching them off workers.
	EventBuf *mem.Arena
	TraceBuf *mem.Arena
	tracer   *trace.Tracer

	// captures are the open capture savefiles, by direction (see
	// CaptureDir), and fileErr the first error writing them or a
	// checkpoint, for Close to return.
	captures [len(captureNames)]captureFile
	fileErr  error

	// freeEnvs is the domain's own free list of delivery envelopes (see
	// Deliver); records, fed from a time-sorted source, is the kernel
	// lane a replayed record's event queues in.
	freeEnvs free.List[*packetEnv]
	records  *sim.Lane
}

// NewShardDomain builds domain i of cfg.Shards exactly as the engine
// does: derived seed, even farm split, per-shard host names (plain when
// there is one shard), buffered event/trace sinks, its own capture and
// checkpoint files, shard-local safe resolver. cross receives every
// packet the domain emits for an address another shard owns. The
// caller (engine or cluster worker) owns epoch advancement of the
// domain's kernel.
func NewShardDomain(cfg ShardEngineConfig, i int, cross CrossSend) (*ShardDomain, error) {
	n := cfg.Shards
	// Golden-ratio stride keeps per-domain seeds distinct and
	// deterministic; shard 0 keeps the caller's seed.
	k := sim.NewKernel(cfg.Seed + uint64(i)*0x9e3779b97f4a7c15)

	base, extra := cfg.Farm.Servers/n, cfg.Farm.Servers%n
	fc := cfg.Farm
	fc.Servers = base
	if i < extra {
		fc.Servers++
	}
	// Suffix host names per shard so spans and logs stay unambiguous.
	// One shard has nothing to disambiguate, and the name seeds the
	// host's RNG stream: left plain, a one-shard domain is byte-equal to
	// a hand-wired kernel + farm + gateway.
	if n > 1 {
		fc.HostConfig.Name = fmt.Sprintf("%s-s%d", cfg.Farm.HostConfig.Name, i)
	}
	if cfg.OnInfected != nil {
		fc.OnInfected = cfg.OnInfected
	}
	f, err := farm.New(k, fc)
	if err != nil {
		return nil, err
	}

	d := &ShardDomain{Index: i, K: k, F: f, records: k.NewLane()}
	gc := cfg.Gateway
	if cfg.EventLog != nil {
		d.EventBuf = mem.NewArena(sinkArenaCap)
		gc.EventSink = gateway.ArenaSink(d.EventBuf)
	}
	if cfg.TraceOut != nil {
		d.TraceBuf = mem.NewArena(sinkArenaCap)
		d.tracer = trace.New(trace.JSONL(d.TraceBuf, nil), i)
		gc.Tracer = d.tracer
		f.SetTracer(d.tracer)
	}
	gc.OnDetected = cfg.OnDetected
	if dir := cfg.CheckpointDir; dir != "" {
		onDetected := cfg.OnDetected
		gc.OnDetected = func(now sim.Time, a netsim.Addr, targets int) {
			if err := saveCheckpoint(dir, now, a, f.VMAt(a)); err != nil {
				d.keep(fmt.Errorf("checkpoint %s: %w", a, err))
			}
			if onDetected != nil {
				onDetected(now, a, targets)
			}
		}
	}
	if dir := cfg.CaptureDir; dir != "" {
		if n > 1 {
			dir = filepath.Join(dir, fmt.Sprintf("shard-%d", i))
		}
		if gc.Capture, err = d.createCapture(dir); err != nil {
			return nil, err
		}
	}

	d.Resolver = dns.NewResolver(gc.Space)
	resolverAddr := gc.Resolver
	gc.ExternalOut = func(now sim.Time, p *netsim.Packet) {
		if p.Proto == netsim.ProtoUDP && p.Dst == resolverAddr {
			if resp := d.Resolver.ServePacket(p); resp != nil {
				// The answer returns to the querying VM, which this
				// domain owns — shard-local, no barrier needed.
				d.Deliver(now.Add(time.Millisecond), resp)
			}
			return
		}
		if cfg.OnEgress != nil {
			cfg.OnEgress(now, p)
		}
	}

	g := gateway.New(k, gc, f)
	f.SetGateway(g)
	space := gc.Space
	g.SetShardHooks(func(a netsim.Addr) bool {
		return OwnerOf(space, n, a) == i
	}, func(now sim.Time, pkt *netsim.Packet) {
		cross(now, OwnerOf(space, n, pkt.Dst), pkt)
	})
	d.G = g

	if cfg.Fault != nil {
		d.Fault = fault.New(k, f, *cfg.Fault)
	}
	return d, nil
}

// packetEnv is a delivery envelope: one packet scheduled into the
// domain's gateway and the kernel event that hands it over, bound once,
// so scheduling allocates nothing once the free list is warm. pkt points
// at a sender's packet (never a copy: the gateway copies whatever it
// keeps) or at rec, where a replayed record's is built.
type packetEnv struct {
	d    *ShardDomain
	pkt  *netsim.Packet
	rec  netsim.Packet
	fire sim.Event
}

// envelope takes an envelope off the domain's free list, where fire
// puts it back; the barrier orders the two.
func (d *ShardDomain) envelope() *packetEnv {
	if env, ok := d.freeEnvs.Get(); ok {
		return env
	}
	env := &packetEnv{d: d}
	env.fire = env.deliver
	return env
}

// Deliver schedules pkt, as it is, for the domain's gateway at time at
// through the event heap: cross-shard packets, InjectBarrier, the safe
// resolver's answers and a cluster worker's inputs. Call it while the
// domain is stopped at a barrier or from its own goroutine.
func (d *ShardDomain) Deliver(at sim.Time, pkt *netsim.Packet) {
	env := d.envelope()
	env.pkt = pkt
	d.K.At(at, env.fire)
}

// ScheduleRecord schedules rec's packet for delivery to the domain's
// gateway at time at, on the records lane. Call it only while the
// domain is stopped at a barrier — the single-threaded pre-epoch hook,
// or a cluster worker between epochs. The packet is built in the
// envelope and is Ephemeral (see telescope.Record.PacketInto).
func (d *ShardDomain) ScheduleRecord(at sim.Time, rec *telescope.Record) {
	env := d.envelope()
	rec.PacketInto(&env.rec)
	env.pkt = &env.rec
	d.records.At(at, env.fire)
}

func (env *packetEnv) deliver(now sim.Time) {
	d := env.d
	d.G.HandleInbound(now, env.pkt)
	// Pin neither the sender's packet nor the record's payload.
	env.pkt, env.rec.Payload = nil, nil
	d.freeEnvs.Put(env)
}

// Close stops the domain's background work, finishes open spans, and
// flushes and closes its capture files. It returns the domain's first
// error writing a capture or a checkpoint.
func (d *ShardDomain) Close() error {
	d.G.Close()
	if d.tracer != nil {
		d.tracer.FlushOpen(d.K.Now())
	}
	d.closeFiles()
	return d.fileErr
}

// ShardEngine is the parallel (or sequential-oracle) shard executor.
type ShardEngine struct {
	cfg     ShardEngineConfig
	space   netsim.Prefix
	local   *sim.Local[*netsim.Packet] // the runner's transport: cross-shard packets
	runner  *sim.ParallelRunner
	domains []*ShardDomain
	prof    *metrics.EpochProfiler
	view    *StatsView // nil without cfg.Metrics
	closed  bool

	// progress, when set, observes the run at the barriers pace picks
	// (SetProgress).
	progress func(now sim.Time, t Totals)
	pace     Pace

	// sinkErr is the first error writing EventLog or TraceOut returned,
	// for Close to report beside the domains' own.
	sinkErr error

	// epochIngress counts records Replay scheduled since the last epoch
	// observation. Incremented in the pre-epoch hook and read/reset in
	// the epoch observer — both run on the runner's driver goroutine, so
	// no atomics are needed.
	epochIngress int
}

// NewShardEngine builds the domains and their runner.
func NewShardEngine(cfg ShardEngineConfig) (*ShardEngine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &ShardEngine{cfg: cfg, space: cfg.Gateway.Space}
	kernels := make([]*sim.Kernel, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		src := i
		// Cross-shard internal traffic: queued for the owner's Deliver
		// at the next barrier, paying the minimum internal latency. It
		// is sent only during runs, after e.local is wired.
		d, err := NewShardDomain(cfg, i, func(now sim.Time, dst int, pkt *netsim.Packet) {
			e.local.Send(src, dst, now.Add(Lookahead), pkt)
		})
		if err != nil {
			// A failed build leaves no file open or unflushed.
			for _, d := range e.domains {
				d.Close()
			}
			return nil, err
		}
		e.domains = append(e.domains, d)
		kernels[i] = d.K
	}
	e.local = sim.NewLocal(kernels, func(dst int, at sim.Time, pkt *netsim.Packet) {
		e.domains[dst].Deliver(at, pkt)
	})
	e.runner = sim.NewRunner(e.local, 0, Lookahead) // every kernel starts at 0
	e.runner.SetSequential(!cfg.Parallel)
	e.view = NewStatsView(cfg.Metrics, e.domains)
	e.runner.SetAfterEpoch(func() {
		now := e.runner.Now()
		e.writeThrough()
		e.view.PublishDue(now)
		if e.progress != nil && e.pace.Due(now) {
			e.progress(now, e.Totals())
		}
	})
	if cfg.Metrics != nil || cfg.EpochLog != nil {
		e.prof = metrics.NewEpochProfiler(cfg.Metrics, cfg.EpochLog)
		e.runner.SetEpochObserver(func(s sim.EpochStats) {
			e.prof.Record(EpochSample(s, e.epochIngress, 0))
			e.epochIngress = 0
		})
	}
	e.view.Publish()
	return e, nil
}

// EpochSample is the profiler's record of one runner epoch, for the
// engine and the cluster coordinator alike: ingress counts the records
// the pre-epoch hook scheduled into it, and bytes the encoded inputs a
// coordinator shipped to its workers for it (zero in process).
func EpochSample(s sim.EpochStats, ingress int, bytes int64) metrics.EpochSample {
	return metrics.EpochSample{
		Seq:           s.Seq,
		StartNS:       int64(s.Start),
		EndNS:         int64(s.End),
		WallNS:        s.WallNS,
		ExchangeNS:    s.ExchangeNS,
		ExchangeMsgs:  s.ExchangeMsgs,
		ExchangeBytes: bytes,
		AdvanceNS:     s.AdvanceNS,
		BarrierWaitNS: s.BarrierWaitNS,
		SlowestShard:  s.SlowestShard,
		IngressFrames: ingress,
	}
}

// Owner returns the shard index owning addr.
func (e *ShardEngine) Owner(addr netsim.Addr) int {
	return OwnerOf(e.space, len(e.domains), addr)
}

// Domains exposes the per-shard simulation domains (tests, Internals).
func (e *ShardEngine) Domains() []*ShardDomain { return e.domains }

// Space returns the monitored prefix.
func (e *ShardEngine) Space() netsim.Prefix { return e.space }

// SetSequential switches epoch execution to the single-threaded oracle
// (equivalence tests). Call only between runs.
func (e *ShardEngine) SetSequential(seq bool) { e.runner.SetSequential(seq) }

// SetAdaptive caps how many lookahead cells one epoch may span (the
// runner's default is 64; 1 pins the fixed grid). Call only between
// runs.
func (e *ShardEngine) SetAdaptive(maxCells int) { e.runner.SetAdaptive(maxCells) }

// Now returns the engine clock.
func (e *ShardEngine) Now() sim.Time { return e.runner.Now() }

// SetProgress installs a read-only progress observer: fn gets the
// barrier clock and the domains' summed Totals at the first epoch
// barrier at or past each multiple of every after the current clock, on
// the goroutine driving the run while every domain is stopped. every <=
// 0 or a nil fn removes it. Call only between runs.
func (e *ShardEngine) SetProgress(every time.Duration, fn func(now sim.Time, t Totals)) {
	e.progress = nil
	if every > 0 && fn != nil {
		e.progress, e.pace = fn, NewPace(every, e.Now())
	}
}

// RunUntil advances every domain to deadline.
func (e *ShardEngine) RunUntil(deadline sim.Time) {
	e.runner.RunUntil(deadline)
	e.atRest()
}

// writeSinks writes every domain's buffered event log and span trace to
// the configured writers in shard order, and empties the buffers. A
// one-domain engine calls it at every epoch boundary and after each
// synchronous entry point that can log, so its output streams like a
// directly attached sink's; with several domains only Close does,
// because interleaving their buffers mid-run would make the bytes
// depend on the epoch grid.
func (e *ShardEngine) writeSinks() {
	for _, d := range e.domains {
		e.writeSink(e.cfg.EventLog, d.EventBuf)
	}
	for _, d := range e.domains {
		e.writeSink(e.cfg.TraceOut, d.TraceBuf)
	}
}

func (e *ShardEngine) writeSink(w io.Writer, buf *mem.Arena) {
	if buf == nil || buf.Len() == 0 {
		return
	}
	if _, err := w.Write(buf.Bytes()); err != nil && e.sinkErr == nil {
		e.sinkErr = err
	}
	buf.Reset()
}

// writeThrough is writeSinks at an epoch boundary or outside an epoch;
// only a one-domain engine streams (see writeSinks).
func (e *ShardEngine) writeThrough() {
	if len(e.domains) == 1 {
		e.writeSinks()
	}
}

// atRest ends every entry point that advances or mutates the farm: what
// it logged is written through and the registry brought up to date.
func (e *ShardEngine) atRest() {
	e.writeThrough()
	e.view.Publish()
}

// RunFor advances every domain by d.
func (e *ShardEngine) RunFor(d time.Duration) { e.RunUntil(e.runner.Now().Add(d)) }

// Barrier exposes the engine's epoch runner as what is read through it:
// how many epochs it has run.
func (e *ShardEngine) Barrier() interface{ Epochs() uint64 } { return e.runner }

// Inject delivers pkt to its owning shard synchronously at the current
// time. Call only between runs (the facade's single-probe entry points).
func (e *ShardEngine) Inject(pkt *netsim.Packet) {
	d := e.domains[e.Owner(pkt.Dst)]
	d.G.HandleInbound(d.K.Now(), pkt)
	e.atRest()
}

// InjectBarrier schedules pkt for delivery to its owning shard through
// the event queue at the current barrier clock — unlike Inject, which
// calls into the gateway synchronously. This is the exact delivery
// semantics the cluster coordinator gives injected packets (it can
// only act at barriers), so cross-mode byte comparisons seed exploits
// through this entry point. Call only between runs.
func (e *ShardEngine) InjectBarrier(pkt *netsim.Packet) {
	e.domains[e.Owner(pkt.Dst)].Deliver(e.runner.Now(), pkt)
}

// FaultLog returns every applied fault across all domains, in shard
// order, one rendered event per line — the cross-mode comparison form.
func (e *ShardEngine) FaultLog() []string {
	var out []string
	for _, d := range e.domains {
		if d.Fault == nil {
			continue
		}
		for _, ev := range d.Fault.Log() {
			out = append(out, fmt.Sprintf("shard=%d %s", d.Index, ev))
		}
	}
	return out
}

// Replay streams src into the engine: at each epoch barrier the records
// falling inside the upcoming epoch are scheduled on their owning
// domain's kernel (one record of lookahead, so multi-GB traces stream
// in bounded memory), then the epoch runs. halt, when non-nil, is
// consulted before each record; epilogue extends the run past the last
// record (the facade default is 1 ms). Returns packets injected and the
// first source error.
func (e *ShardEngine) Replay(src telescope.Source, halt func() bool, epilogue time.Duration) (int, error) {
	defer e.atRest()
	return ReplayOver(e.runner, src, halt, epilogue, func(at sim.Time, rec telescope.Record) {
		e.epochIngress++
		e.domains[e.Owner(rec.Dst)].ScheduleRecord(at, &rec)
	})
}

// Totals sums every domain's counters, with copies of their histograms.
func (e *ShardEngine) Totals() Totals { return ownTotals(e.domains) }

// GatewayStats is Totals().Gateway.
func (e *ShardEngine) GatewayStats() gateway.Stats { return e.Totals().Gateway }

// FarmStats is Totals().Farm.
func (e *ShardEngine) FarmStats() farm.Stats { return e.Totals().Farm }

// LiveVMs is Totals().LiveVMs.
func (e *ShardEngine) LiveVMs() int { return e.Totals().LiveVMs }

// MemoryInUse is Totals().Memory.
func (e *ShardEngine) MemoryInUse() uint64 { return e.Totals().Memory }

// RecycleAll destroys every binding on every domain, in shard order.
func (e *ShardEngine) RecycleAll() {
	for _, d := range e.domains {
		d.G.RecycleAll(d.K.Now())
	}
	e.atRest()
}

// Close stops the domains' background work, finishes open spans,
// closes their capture files, and writes what the per-domain event logs
// and traces still buffer to the configured writers in shard order. It
// returns every domain's file error and the first sink error.
// Idempotent.
func (e *ShardEngine) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	flushT0 := time.Now()
	e.runner.Close()
	var errs []error
	for _, d := range e.domains {
		errs = append(errs, d.Close())
	}
	e.writeSinks()
	e.view.Publish()
	e.prof.RecordFlush(time.Since(flushT0).Nanoseconds())
	return errors.Join(append(errs, e.sinkErr, e.prof.FlushTimeline())...)
}
