package main

import (
	"errors"
	"runtime"
	"time"

	"potemkin"
	"potemkin/internal/ingest"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
)

// Wire traffic shapes. Every frame is a minimum-size TCP SYN to 445,
// GRE-encapsulated with a virtual timestamp, sent over one loopback UDP
// socket by one generator goroutine.
const (
	wireDests   = 1024 // destinations the closed-loop workloads cycle over
	warmFlows   = 64   // wire-warm: bounded flows per destination
	floodSrcs   = 8192 // wire-synflood: sources (E11's shape)
	floodPorts  = 60000
	loopWindow  = 1024                  // closed loop: frames in flight
	frameGap    = 10 * time.Microsecond // closed loop: virtual spacing (a 100k pps feed)
	coldRate    = 12000                 // wire-cold-overload: offered pps, ~2x cold capacity
	coldTick    = time.Millisecond
	coldSkipLag = 50 * time.Millisecond // a tick this late is skipped, not burst
	wireSpace   = "10.5.0.0/16"
	wireServers = 64
)

// frameFn fills pkt with the i-th frame of a workload.
type frameFn func(i uint64, pkt *netsim.Packet)

func synTemplate() netsim.Packet {
	return netsim.Packet{Proto: netsim.ProtoTCP, TTL: 116, DstPort: 445, Flags: netsim.FlagSYN, Window: 65535}
}

// seededDests picks n distinct monitored addresses from the seed.
func seededDests(rng *sim.RNG, n int) []netsim.Addr {
	space := netsim.MustParsePrefix(wireSpace)
	perm := rng.Perm(int(space.Size()))
	out := make([]netsim.Addr, n)
	for i := range out {
		out[i] = space.Nth(uint64(perm[i]))
	}
	return out
}

// publicAddr draws a source outside the monitored space and private
// ranges (1.0.0.0 – 9.255.255.255).
func publicAddr(rng *sim.RNG) netsim.Addr {
	return netsim.Addr(0x01000000 + rng.Uint64n(9<<24))
}

// warmFrames is wire-warm's shape: a bounded set of 64 flows per
// destination, 65,536 flows cycling, so after the first pass every SYN
// finds its binding and its connection-table entry.
func warmFrames(seed uint64) frameFn {
	rng := sim.NewRNG(seed).Fork("wire-warm")
	dests := seededDests(rng, wireDests)
	type flow struct {
		src  netsim.Addr
		port uint16
	}
	flows := make([]flow, wireDests*warmFlows)
	for i := range flows {
		flows[i] = flow{publicAddr(rng), uint16(1024 + rng.Intn(60000))}
	}
	tmpl := synTemplate()
	return func(i uint64, pkt *netsim.Packet) {
		f := flows[i%uint64(len(flows))]
		*pkt = tmpl
		pkt.Src, pkt.SrcPort, pkt.Dst = f.src, f.port, dests[i%wireDests]
	}
}

// floodFrames is wire-synflood's shape (E11's): a fresh flow per
// frame from 8,192 sources with rotating ports, so once the guests'
// 256-entry connection tables fill every SYN inserts and evicts.
func floodFrames(seed uint64) frameFn {
	rng := sim.NewRNG(seed).Fork("wire-synflood")
	dests := seededDests(rng, wireDests)
	srcs := make([]netsim.Addr, floodSrcs)
	for i := range srcs {
		srcs[i] = publicAddr(rng)
	}
	tmpl := synTemplate()
	return func(i uint64, pkt *netsim.Packet) {
		*pkt = tmpl
		pkt.Src, pkt.SrcPort, pkt.Dst = srcs[i%floodSrcs], uint16(1024+i%floodPorts), dests[i%wireDests]
	}
}

// coldFrames is wire-cold-overload's shape: every frame to a uniformly
// random destination in the /16, so nearly every one is a cold bind.
func coldFrames(seed uint64) frameFn {
	rng := sim.NewRNG(seed).Fork("wire-cold")
	space := netsim.MustParsePrefix(wireSpace)
	tmpl := synTemplate()
	return func(i uint64, pkt *netsim.Packet) {
		*pkt = tmpl
		pkt.Src, pkt.SrcPort, pkt.Dst = publicAddr(rng), uint16(1024+rng.Intn(60000)), space.Nth(rng.Uint64n(space.Size()))
	}
}

// wirePipe is a farm serving a wire feed: the facade's, or the
// seam-decorated assembly of the same constructors (seams.go).
type wirePipe interface {
	Addr() string
	// Serve feeds the simulation until Stop, then drains and returns.
	Serve() error
	Stop()
	// Ingest is the listener and delivery accounting; safe mid-serve.
	Ingest() potemkin.IngestSummary
	Stats() potemkin.Stats
	Close()
}

// wireOptions is the farm every wire workload runs on.
func wireOptions(seed uint64, idle time.Duration) potemkin.Options {
	return potemkin.Options{
		Seed: seed, MonitoredSpace: wireSpace, Servers: wireServers,
		Policy: potemkin.InternalReflect, IdleTimeout: idle,
		Wire: &potemkin.WireOptions{Addr: "127.0.0.1:0"},
	}
}

// facadePipe drives the default engine through Options.Wire. sp, set on
// traced runs, wraps the facade calls in spans.
type facadePipe struct {
	hf *potemkin.Honeyfarm
	ws *potemkin.WireServer
	sp *seamSpans
}

func newFacadePipe(opts potemkin.Options, sp *seamSpans) (wirePipe, error) {
	p := &facadePipe{sp: sp}
	var err error
	sp.call("New", func() { p.hf, err = potemkin.New(opts) })
	if err != nil {
		return nil, err
	}
	sp.call("StartWire", func() { p.ws, err = p.hf.StartWire() })
	if err != nil {
		p.hf.Close()
		return nil, err
	}
	return p, nil
}

func (p *facadePipe) Addr() string { return p.ws.Addr().String() }
func (p *facadePipe) Serve() (err error) {
	p.sp.call("Serve", func() { _, err = p.ws.Serve() })
	return err
}
func (p *facadePipe) Stop()                          { p.ws.Stop() }
func (p *facadePipe) Ingest() potemkin.IngestSummary { return p.ws.Stats().Ingest }
func (p *facadePipe) Stats() potemkin.Stats          { return p.hf.Stats() }
func (p *facadePipe) Close()                         { p.sp.call("Close", p.hf.Close) }

// closedLoop is the single sending goroutine's state on the two
// flow-controlled workloads.
type closedLoop struct {
	s     *ingest.WireSender
	pipe  wirePipe
	frame frameFn
	pkt   netsim.Packet
	sent  uint64 // frames written to the socket
	seen  uint64 // last delivered count read, for the window
}

var errStalled = errors.New("wire feed stalled: no delivery progress for 30 s")

// send sends n frames, never letting more than loopWindow be in flight
// ahead of what the simulation has consumed.
func (g *closedLoop) send(n uint64) error {
	for end := g.sent + n; g.sent < end; {
		g.frame(g.sent, &g.pkt)
		if err := g.s.SendPacket(sim.Time(g.sent)*sim.Time(frameGap), &g.pkt); err != nil {
			return err
		}
		g.sent++
		if g.sent-g.seen < loopWindow {
			continue
		}
		if err := await(g.pipe, func(in potemkin.IngestSummary) bool {
			g.seen = in.Delivered
			return g.sent-g.seen < loopWindow
		}); err != nil {
			return err
		}
	}
	return nil
}

// await polls the pipe's accounting until done reports true.
func await(pipe wirePipe, done func(potemkin.IngestSummary) bool) error {
	deadline := time.Now().Add(30 * time.Second)
	for !done(pipe.Ingest()) {
		if time.Now().After(deadline) {
			return errStalled
		}
		time.Sleep(20 * time.Microsecond)
	}
	return nil
}

// settle waits until every frame the socket accepted has been
// delivered, dropped or refused. A lossless feed is settled once all
// sent frames are accounted for; a lossy one (kernel drops are
// invisible to the listener) once the count has been quiet for 50 ms.
func settle(pipe wirePipe, sent uint64) error {
	var last uint64
	var since time.Time
	return await(pipe, func(in potemkin.IngestSummary) bool {
		if in.Received != last || in.Delivered+in.Dropped+in.FrameErrors != in.Received {
			last, since = in.Received, time.Now()
			return false
		}
		return in.Received == sent || time.Since(since) > 50*time.Millisecond
	})
}

// wireSession builds a pipe and runs feed on its own goroutine while the
// caller's goroutine serves. feed returns how many frames it sent; the
// session then lets the listener settle and stops it. The pipe is left
// open for the caller to read and Close.
func wireSession(mk func() (wirePipe, error), feed func(pipe wirePipe) (sent uint64, err error)) (wirePipe, error) {
	pipe, err := mk()
	if err != nil {
		return nil, err
	}
	feedErr := make(chan error, 1)
	go func() {
		sent, err := feed(pipe)
		if serr := settle(pipe, sent); err == nil {
			err = serr
		}
		pipe.Stop()
		feedErr <- err
	}()
	serveErr := pipe.Serve()
	if err = <-feedErr; err == nil {
		err = serveErr
	}
	if err != nil {
		pipe.Close()
		return nil, err
	}
	return pipe, nil
}

// closedFeed adapts a closed-loop body to wireSession: it dials the
// pipe, runs body on the one generator goroutine, and reports the count.
func closedFeed(frame frameFn, body func(g *closedLoop) error) func(wirePipe) (uint64, error) {
	return func(pipe wirePipe) (uint64, error) {
		s, err := ingest.DialWire(pipe.Addr(), 1, true)
		if err != nil {
			return 0, err
		}
		defer s.Close()
		g := &closedLoop{s: s, pipe: pipe, frame: frame}
		err = body(g)
		return g.sent, err
	}
}

// wireChecks applies the output checks every wire workload shares and
// records the operation counts.
func wireChecks(r *run, in potemkin.IngestSummary, st potemkin.Stats, sent uint64, lossless bool) {
	gap := int64(in.Received) - int64(in.Delivered+in.Dropped+in.FrameErrors)
	r.check("conservation", gap == 0, "received %d != delivered %d + queue drops %d + frame errors %d",
		in.Received, in.Delivered, in.Dropped, in.FrameErrors)
	r.check("inbound-matches-delivered", st.InboundPackets == in.Delivered,
		"gateway dispatched %d packets, wire delivered %d", st.InboundPackets, in.Delivered)
	r.ops(sent, sent-in.Delivered)
	if !lossless {
		return
	}
	if in.Delivered != sent {
		r.invalidate("lossless workload lost %d of %d frames", sent-in.Delivered, sent)
	}
	r.check("lossless", st.DeliveredToVM == sent && st.OutboundToSource == sent,
		"sent %d, delivered to a VM %d, answered %d", sent, st.DeliveredToVM, st.OutboundToSource)
}

// closedSizes are a closed-loop workload's frame counts.
type closedSizes struct {
	warm   int // warm-up frames, untimed
	slice  int // frames per timed slice
	slices int
}

// closedLoopSizes sizes the timed region so it lasts about the asked
// seconds on the reference host: work is fixed by -seconds, never by the
// clock, so simulated results repeat exactly.
func closedLoopSizes(cfg runConfig) closedSizes {
	// However small the run, the warm-up must outlast a flash clone
	// (0.42 simulated seconds, 42k frames at the 10 us spacing), or
	// frames are still queued behind it when the run ends.
	const minWarm = 60000
	switch cfg.Workload {
	case wWarm: // ~280k pps
		return closedSizes{warm: cfg.scaled(100000, minWarm), slice: cfg.scaled(100000, 2048), slices: max(3*cfg.Seconds, cfg.minSamples())}
	default: // wire-synflood, ~100k pps once every table is full
		return closedSizes{warm: cfg.scaled(350000, minWarm), slice: cfg.scaled(25000, 1024), slices: max(4*cfg.Seconds, cfg.minSamples())}
	}
}

// runClosedLoop is the untraced wire-warm / wire-synflood run.
func runClosedLoop(r *run, frame frameFn) error {
	sz := closedLoopSizes(r.cfg)
	mk := func() (wirePipe, error) { return newFacadePipe(wireOptions(r.cfg.Seed, 0), nil) }
	began := processStart
	// Rehearsals: the whole set-up (farm, socket, warm-up), timed and
	// discarded. Their farms saw identical input, so their digests must
	// agree.
	for i := 1; i < r.cfg.setupRepeats(); i++ {
		pipe, err := wireSession(mk, closedFeed(frame, func(g *closedLoop) error {
			err := g.send(uint64(sz.warm))
			r.sample("setup_s", time.Since(began).Seconds())
			return err
		}))
		if err != nil {
			return err
		}
		d, err := simDigest(pipe.(*facadePipe).hf)
		pipe.Close()
		if err != nil {
			return err
		}
		r.digest("warm-up", d)
		began = time.Now()
	}

	var before, after procSample
	var sent uint64
	pipe, err := wireSession(mk, closedFeed(frame, func(g *closedLoop) error {
		if err := g.send(uint64(sz.warm)); err != nil {
			return err
		}
		r.sample("setup_s", time.Since(began).Seconds())
		runtime.GC() // start from a collected heap: where the next cycle falls moves pps by 2x on wire-synflood
		before = readProc()
		mark := before.wall
		for i := 0; i < sz.slices; i++ {
			if err := g.send(uint64(sz.slice)); err != nil {
				return err
			}
			now := time.Now()
			r.sample("pps", float64(sz.slice)/now.Sub(mark).Seconds())
			mark = now
		}
		after = readProc()
		if r.cfg.Sabotage == "lossy-closed-loop" {
			g.sent += 7 // claim frames that never reached the socket
		}
		sent = g.sent
		return nil
	}))
	if err != nil {
		return err
	}
	defer pipe.Close()
	timed := float64(sz.slice * sz.slices)
	r.set("alloc_kib_per_pkt", float64(after.alloc-before.alloc)/1024/timed)
	r.set("live_heap_mib", liveHeapMiB())
	in, st := pipe.Ingest(), pipe.Stats()
	wireChecks(r, in, st, sent, true)
	hf := pipe.(*facadePipe).hf
	r.set("sim_mib_per_vm", simMiBPerVM(st))
	d, err := simDigest(hf)
	if err != nil {
		return err
	}
	r.digest("default", d)
	return nil
}

func init() {
	workloads[wWarm] = workload{
		why: "bounded flow set to warm bindings: the guest stays on its known-flow path, so ingest (socket read, decap, queue, source read) does most of the work",
		run: func(r *run) error {
			if r.cfg.Trace {
				return traceClosedLoop(r, warmFrames(r.cfg.Seed))
			}
			return runClosedLoop(r, warmFrames(r.cfg.Seed))
		},
	}
	workloads[wSynflood] = workload{
		why: "a fresh flow per frame (E11's shape) at steady state: same ingest path, but every SYN inserts into a full guest connection table, so guest does most of the work",
		run: func(r *run) error {
			if r.cfg.Trace {
				return traceClosedLoop(r, floodFrames(r.cfg.Seed))
			}
			return runClosedLoop(r, floodFrames(r.cfg.Seed))
		},
	}
}
