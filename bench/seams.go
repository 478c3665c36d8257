package main

import (
	"sync"
	"time"

	"potemkin"
	"potemkin/internal/core"
	"potemkin/internal/dns"
	"potemkin/internal/farm"
	"potemkin/internal/gateway"
	"potemkin/internal/guest"
	"potemkin/internal/ingest"
	"potemkin/internal/metrics"
	"potemkin/internal/netsim"
	"potemkin/internal/scenario"
	"potemkin/internal/sim"
	"potemkin/internal/telescope"
)

// Seam spans: the benchmark assembles the pipeline from the same public
// constructors the facade uses, with timing decorators on the three
// interfaces that separate layers — gateway.Backend, gateway.VMRef and
// gateway.Egress — plus Config.ExternalOut and the replay Source. A
// layer's self time is its span minus its children; replay time under
// no seam span (clone stages, guest handlers and timers behind the
// farm's 100 us link hops, heap operations) is the kernel residual.

// seamSpans holds the span kinds of one traced run.
type seamSpans struct {
	tr *tracer

	replay      spanID // the whole replay loop; its self time is the kernel residual
	sourceRead  spanID // Source.Read that found a record ready
	feedWait    spanID // Source.Read entered with the ingest queue empty: simulation starved
	inbound     spanID // Gateway.HandleInbound
	outbound    spanID // Egress.HandleOutbound
	requestVM   spanID // Backend.RequestVM
	ready       spanID // RequestVM's ready callback back into the gateway
	deliver     spanID // VMRef.Deliver
	destroy     spanID // VMRef.Destroy
	externalOut spanID // Config.ExternalOut

	facade map[string]spanID // New, StartWire, Serve, Replay, RunFor, RunScenario, Stats, Close
}

func newSeamSpans() *seamSpans {
	tr := newTracer()
	sp := &seamSpans{
		tr:          tr,
		replay:      tr.id("bench.replay"),
		sourceRead:  tr.id("ingest.source_read"),
		feedWait:    tr.id("ingest.feed_wait"),
		inbound:     tr.id("gateway.inbound"),
		outbound:    tr.id("gateway.outbound"),
		requestVM:   tr.id("farm.request_vm"),
		ready:       tr.id("gateway.ready"),
		deliver:     tr.id("guest.deliver"),
		destroy:     tr.id("guest.destroy"),
		externalOut: tr.id("facade.external_out"),
		facade:      map[string]spanID{},
	}
	for _, name := range []string{"New", "StartWire", "Serve", "Replay", "RunFor", "RunScenario", "Stats", "Close"} {
		sp.facade[name] = tr.id("facade." + name)
	}
	return sp
}

// call wraps one facade call in its span; a nil receiver just calls.
func (sp *seamSpans) call(name string, fn func()) {
	if sp == nil {
		fn()
		return
	}
	sp.tr.span(sp.facade[name], fn)
}

// tracedBackend decorates gateway.Backend.
type tracedBackend struct {
	sp    *seamSpans
	inner gateway.Backend
}

func (b *tracedBackend) RequestVM(now sim.Time, addr netsim.Addr, hint gateway.SpawnHint, ready func(gateway.VMRef, error)) {
	tr := b.sp.tr
	tr.begin(b.sp.requestVM)
	b.inner.RequestVM(now, addr, hint, func(vm gateway.VMRef, err error) {
		tr.begin(b.sp.ready)
		if vm != nil {
			vm = &tracedVM{b.sp, vm}
		}
		ready(vm, err)
		tr.end()
	})
	tr.end()
}

// tracedVM decorates gateway.VMRef.
type tracedVM struct {
	sp    *seamSpans
	inner gateway.VMRef
}

func (v *tracedVM) Deliver(now sim.Time, pkt *netsim.Packet) {
	v.sp.tr.begin(v.sp.deliver)
	v.inner.Deliver(now, pkt)
	v.sp.tr.end()
}

func (v *tracedVM) Destroy(now sim.Time) {
	v.sp.tr.begin(v.sp.destroy)
	v.inner.Destroy(now)
	v.sp.tr.end()
}

// tracedEgress decorates gateway.Egress and forwards Recycler, which the
// farm reaches through the same value when a server crashes.
type tracedEgress struct {
	sp    *seamSpans
	inner *gateway.Gateway
}

func (e *tracedEgress) HandleOutbound(now sim.Time, pkt *netsim.Packet) gateway.Disposition {
	e.sp.tr.begin(e.sp.outbound)
	d := e.inner.HandleOutbound(now, pkt)
	e.sp.tr.end()
	return d
}

func (e *tracedEgress) RecycleBinding(now sim.Time, addr netsim.Addr, detail string) bool {
	return e.inner.RecycleBinding(now, addr, detail)
}

// tracedSource decorates the replay Source. ready, when set, reports
// whether a record is waiting, which splits reads into served and
// starved. at, when set, runs on the replay goroutine just before the
// read numbered mark (counting from 0): the ledger window opens there.
type tracedSource struct {
	sp    *seamSpans
	inner telescope.Source
	ready func() bool
	reads uint64
	mark  uint64
	at    func()
}

func (s *tracedSource) Read(rec *telescope.Record) error {
	if s.at != nil && s.reads == s.mark {
		s.at()
	}
	s.reads++
	id := s.sp.sourceRead
	if s.ready != nil && !s.ready() {
		id = s.sp.feedWait
	}
	s.sp.tr.begin(id)
	err := s.inner.Read(rec)
	s.sp.tr.end()
	return err
}

// layerConfigs maps opts onto the farm and gateway configurations
// potemkin.New builds for them, its defaults included. The monitored
// space is one of this package's literals, so it parses.
func layerConfigs(o potemkin.Options) (farm.Config, gateway.Config) {
	if o.MonitoredSpace == "" {
		o.MonitoredSpace = "10.5.0.0/16"
	}
	if o.Servers == 0 {
		o.Servers = 4
	}
	if o.ServerMemory == 0 {
		o.ServerMemory = 16 << 30
	}
	fc := farm.DefaultConfig()
	fc.Servers = o.Servers
	fc.HostConfig.MemoryBytes = o.ServerMemory
	fc.Profile = guest.WindowsXP()
	gc := gateway.DefaultConfig()
	gc.Space = netsim.MustParsePrefix(o.MonitoredSpace)
	gc.Policy = gateway.Policy(o.Policy)
	gc.IdleTimeout = 60 * time.Second
	if o.IdleTimeout > 0 {
		gc.IdleTimeout = o.IdleTimeout
	}
	return fc, gc
}

// seamFarm is the decorated pipeline: kernel, farm, gateway.
type seamFarm struct {
	sp *seamSpans
	k  *sim.Kernel
	f  *farm.Farm
	g  *gateway.Gateway
	// runner is set on the engine-shaped assembly scenario runs use: a
	// one-shard, single-threaded epoch runner, as the facade builds for
	// Options.Scenario.
	runner *sim.ParallelRunner
}

// assemble wires the decorated pipeline the way the facade wires its
// own for opts. With plan set it mirrors the one-shard engine domain
// (core.NewShardDomain) scenario runs execute on; otherwise the classic
// single-kernel engine (buildSequential).
func assemble(opts potemkin.Options, sp *seamSpans, plan *scenario.Plan) (*seamFarm, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	fc, gc := layerConfigs(opts)
	space := gc.Space
	if plan != nil {
		reg := metrics.NewRegistry() // scenario runs force telemetry on
		fc.Profile, fc.PickTargetFor, fc.Metrics, gc.Metrics = plan.Profile, plan.PickTargetFor(), reg, reg
		fc.HostConfig.Name += "-s0"
	}

	s := &seamFarm{sp: sp, k: sim.NewKernel(opts.Seed)}
	var err error
	if s.f, err = farm.New(s.k, fc); err != nil {
		return nil, err
	}
	resolver := dns.NewResolver(space)
	resolverAddr := gc.Resolver
	gc.ExternalOut = func(now sim.Time, p *netsim.Packet) {
		sp.tr.begin(sp.externalOut)
		if p.Proto == netsim.ProtoUDP && p.Dst == resolverAddr {
			if resp := resolver.ServePacket(p); resp != nil {
				s.k.After(time.Millisecond, func(then sim.Time) { s.handleInbound(then, resp) })
			}
		}
		sp.tr.end()
	}
	s.g = gateway.New(s.k, gc, &tracedBackend{sp, s.f})
	s.f.SetGateway(&tracedEgress{sp, s.g})
	if plan != nil {
		s.g.SetShardHooks(
			func(a netsim.Addr) bool { return core.OwnerOf(space, 1, a) == 0 },
			func(sim.Time, *netsim.Packet) { panic("bench: one-shard assembly re-injected across shards") })
		s.runner = sim.NewParallelRunner([]*sim.Kernel{s.k}, time.Millisecond)
		s.runner.SetSequential(true)
		s.runner.SetAdaptive(64) // the engine's default cell cap
	}
	return s, nil
}

func (s *seamFarm) handleInbound(now sim.Time, pkt *netsim.Packet) {
	s.sp.tr.begin(s.sp.inbound)
	s.g.HandleInbound(now, pkt)
	s.sp.tr.end()
}

// replay streams src through the pipeline inside the replay span, the
// way Honeyfarm.Replay does on the engine this assembly mirrors.
func (s *seamFarm) replay(src telescope.Source, epilogue time.Duration) (n int, err error) {
	s.sp.tr.begin(s.sp.replay)
	defer s.sp.tr.end()
	if s.runner != nil {
		return core.ReplayOver(s.runner, src, nil, epilogue, func(at sim.Time, rec telescope.Record) {
			s.k.At(at, func(now sim.Time) { s.handleInbound(now, rec.Packet()) })
		})
	}
	rp := &telescope.StreamReplayer{K: s.k, Src: src, Base: s.k.Now(), Emit: s.handleInbound}
	err = rp.Run()
	s.k.RunFor(epilogue)
	return rp.Injected, err
}

// runFor advances simulated time inside the replay span, so a tail's
// events land in the same ledger.
func (s *seamFarm) runFor(d time.Duration) {
	s.sp.tr.begin(s.sp.replay)
	defer s.sp.tr.end()
	if s.runner != nil {
		s.runner.RunFor(d)
		return
	}
	s.k.RunFor(d)
}

// stats maps the layer counters onto the facade's Stats, field for
// field as Honeyfarm.Stats does, so the two compare with ==.
func (s *seamFarm) stats() potemkin.Stats {
	gs, fs := s.g.Stats(), s.f.Stats()
	return potemkin.Stats{
		Now:               time.Duration(s.k.Now()),
		LiveVMs:           s.f.LiveVMs(),
		PeakVMs:           fs.PeakLiveVMs,
		InfectedVMs:       s.f.InfectedVMs(),
		BindingsCreated:   gs.BindingsCreated,
		BindingsRecycled:  gs.BindingsRecycled,
		InboundPackets:    gs.InboundPackets,
		DeliveredToVM:     gs.DeliveredToVM,
		OutboundDropped:   gs.OutDropped,
		OutboundToSource:  gs.OutToSource,
		OutboundReflected: gs.OutReflected,
		DNSProxied:        gs.OutDNSProxied,
		SpawnFailures:     gs.SpawnFailures + fs.SpawnFailures,
		DetectedInfected:  gs.DetectedInfected,
		ScanFiltered:      gs.ScanFiltered,
		MemoryInUse:       s.f.MemoryInUse(),
	}
}

// close stops the gateway's timers and the runner's worker goroutines,
// which would otherwise keep the whole farm reachable.
func (s *seamFarm) close() {
	s.g.Close()
	if s.runner != nil {
		s.runner.Close()
	}
}

// seamPipe serves a wire feed through the decorated pipeline: the
// listener and WireSource the facade's StartWire builds, fed to replay.
type seamPipe struct {
	*seamFarm
	l        *ingest.Listener
	src      *ingest.WireSource
	ts       *tracedSource
	stopOnce sync.Once
}

func newSeamPipe(opts potemkin.Options, sp *seamSpans) (*seamPipe, error) {
	sf, err := assemble(opts, sp, nil)
	if err != nil {
		return nil, err
	}
	w := opts.Wire
	l, err := ingest.Listen(ingest.Config{Addr: w.Addr, Shards: w.Shards, QueueLen: w.QueueLen, Timestamped: !w.PlainGRE})
	if err != nil {
		sf.close()
		return nil, err
	}
	p := &seamPipe{seamFarm: sf, l: l, src: &ingest.WireSource{L: l, Speedup: w.Speedup}}
	p.ts = &tracedSource{sp: sp, inner: p.src, ready: func() bool { return len(l.Frames(0)) > 0 }}
	return p, nil
}

func (p *seamPipe) Addr() string { return p.l.Addr().String() }

func (p *seamPipe) Serve() error {
	_, err := p.replay(p.ts, time.Millisecond)
	p.Stop()
	return err
}

func (p *seamPipe) Stop() { p.stopOnce.Do(func() { p.l.Close() }) }

func (p *seamPipe) Ingest() potemkin.IngestSummary {
	ls := p.l.Stats()
	return potemkin.IngestSummary{
		Received: ls.Received, Bytes: ls.Bytes, FrameErrors: ls.FrameErrors, Dropped: ls.Dropped,
		SeqGaps: ls.SeqGaps, Enqueued: ls.Enqueued, Delivered: p.src.Emitted(), Clamped: p.src.Clamped(),
		QueueDepth: ls.QueueDepth, QueueHWM: ls.QueueHWM,
	}
}

func (p *seamPipe) Stats() potemkin.Stats { return p.stats() }
func (p *seamPipe) Close()                { p.close() }
