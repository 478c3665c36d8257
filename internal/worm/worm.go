// Package worm simulates an Internet-scale scanning epidemic coupled to
// the honeyfarm — the substrate for the paper's containment and
// detection-time experiments. The susceptible population is modeled in
// aggregate (an SI process advanced in small time steps with binomially
// sampled infections) on the epidemic's own clock. Every scan that lands
// inside the monitored telescope prefix is materialized as a trace
// record carrying the exploit: Source hands them to a replay
// (core.ShardEngine.Replay, potemkin.Honeyfarm.Replay), which routes
// each to its owner shard, so the honeyfarm side runs the genuine
// binding / cloning / containment machinery in every execution mode.
// RunUntil advances the model alone, for runs without a farm.
//
// Coupling in the other direction is what the containment experiment
// measures: packets the gateway lets escape (leaks) carry the exploit to
// the outside population and accelerate the epidemic; contained policies
// contribute nothing.
package worm

import (
	"io"
	"math"
	"time"

	"potemkin/internal/metrics"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/telescope"
)

// Config parameterizes an epidemic.
type Config struct {
	// Susceptible is the vulnerable population size.
	Susceptible int
	// InitialInfected seeds the epidemic.
	InitialInfected int
	// ScanRate is scans/second per infected host, each aimed uniformly
	// at the 2^32 address space (Code Red / Slammer style).
	ScanRate float64

	// Telescope is the honeyfarm's monitored space; scans landing there
	// become the records Source yields.
	Telescope netsim.Prefix
	// MaxDeliverPerStep caps materialized records per step so a huge
	// epidemic cannot melt the gateway simulation; the overflow is
	// counted, not silently lost.
	MaxDeliverPerStep int

	// ExploitPayload is carried by scan records (so honeyfarm guests
	// actually get infected). Port/proto describe the probe.
	ExploitPayload []byte
	Port           uint16
	Proto          netsim.Proto

	// Step is the integration step.
	Step time.Duration

	// SampleEvery controls how often the infected count is recorded.
	SampleEvery time.Duration

	Seed uint64
}

// DefaultConfig returns a Blaster-like epidemic: 1M susceptibles, 10
// scans/s, uniform targeting, against a /16 telescope.
func DefaultConfig() Config {
	return Config{
		Susceptible:       1 << 20,
		InitialInfected:   10,
		ScanRate:          10,
		Telescope:         netsim.MustParsePrefix("10.5.0.0/16"),
		MaxDeliverPerStep: 64,
		Port:              445,
		Proto:             netsim.ProtoTCP,
		Step:              100 * time.Millisecond,
		SampleEvery:       time.Second,
		Seed:              1,
	}
}

// Stats summarizes an epidemic run.
type Stats struct {
	Infected          int
	Susceptible       int
	TelescopeHits     uint64
	DeliveredPackets  uint64 // records Source has yielded
	SuppressedPackets uint64 // telescope hits over Source's per-step cap
	LeakInfections    uint64 // infections caused by honeyfarm leakage
	FirstTelescopeHit sim.Time
	SeenTelescope     bool
}

// Epidemic is a worm outbreak on its own clock, which starts at 0: a
// step every Cfg.Step and a Curve sample every Cfg.SampleEvery. A
// sample falling on a step's instant records the state before that
// step. Source and RunUntil advance it.
type Epidemic struct {
	Cfg Config

	// Curve records (seconds, infected count) over time.
	Curve metrics.Series

	nextStep    sim.Time
	nextSample  sim.Time
	susceptible float64
	infected    float64
	stats       Stats
	rng         *sim.RNG

	// Response state: once a countermeasure deploys, susceptibles are
	// immunized at patchRate fraction/second.
	patchRate float64
	immunized float64
}

// New prepares an epidemic at time 0. Drive it with Source or RunUntil.
func New(cfg Config) *Epidemic {
	if cfg.Susceptible <= 0 || cfg.InitialInfected <= 0 {
		panic("worm: empty population")
	}
	if cfg.Step <= 0 {
		cfg.Step = 100 * time.Millisecond
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = time.Second
	}
	if cfg.MaxDeliverPerStep <= 0 {
		cfg.MaxDeliverPerStep = 64
	}
	e := &Epidemic{
		Cfg:         cfg,
		nextStep:    sim.Start.Add(cfg.Step),
		susceptible: float64(cfg.Susceptible - cfg.InitialInfected),
		infected:    float64(cfg.InitialInfected),
		rng:         sim.NewRNG(cfg.Seed ^ 0x776f726d),
	}
	e.Curve.Name = "infected"
	return e
}

// Stats returns a snapshot of the epidemic state.
func (e *Epidemic) Stats() Stats {
	s := e.stats
	s.Infected = int(e.infected)
	s.Susceptible = int(e.susceptible)
	return s
}

// Infected returns the current infected count.
func (e *Epidemic) Infected() int { return int(e.infected) }

// RunUntil advances the model through every step and sample at or
// before t, materializing no scans.
func (e *Epidemic) RunUntil(t sim.Time) {
	for min(e.nextSample, e.nextStep) <= t {
		e.tick()
	}
}

// tick runs the model's next instant — a Curve sample, or else a step —
// and returns it with the step's telescope hits.
func (e *Epidemic) tick() (at sim.Time, hits int) {
	if e.nextSample <= e.nextStep {
		at = e.nextSample
		e.Curve.Add(at.Seconds(), e.infected)
		e.nextSample = at.Add(e.Cfg.SampleEvery)
		return at, 0
	}
	at = e.nextStep
	e.nextStep = at.Add(e.Cfg.Step)
	return at, e.step(at)
}

// Source returns the epidemic's telescope-bound scans as a replay
// source: one record per scan, at its step's time, carrying the exploit
// payload, and io.EOF once the model has run through end (RunUntil's
// bound). Each step yields at most Cfg.MaxDeliverPerStep records; the
// rest count as SuppressedPackets. Reading advances the model, so a
// replay that reads ahead steps it ahead of the farm it feeds.
func (e *Epidemic) Source(end sim.Time) telescope.Source {
	return &scanSource{e: e, end: end}
}

// scanSource is Source's reader: the step it is in and how many of that
// step's records it has still to yield.
type scanSource struct {
	e    *Epidemic
	end  sim.Time
	at   sim.Time
	left int
}

func (s *scanSource) Read(rec *telescope.Record) error {
	e := s.e
	for s.left == 0 {
		if min(e.nextSample, e.nextStep) > s.end {
			return io.EOF
		}
		var hits int
		s.at, hits = e.tick()
		if hits > e.Cfg.MaxDeliverPerStep {
			e.stats.SuppressedPackets += uint64(hits - e.Cfg.MaxDeliverPerStep)
			hits = e.Cfg.MaxDeliverPerStep
		}
		s.left = hits
	}
	s.left--
	e.stats.DeliveredPackets++
	e.scan(s.at, rec)
	return nil
}

const universe = float64(1 << 32)

// step advances the SI process by one interval and returns how many
// scans hit the telescope.
func (e *Epidemic) step(now sim.Time) int {
	dt := e.Cfg.Step.Seconds()
	scanRate := e.infected * e.Cfg.ScanRate
	scans := float64(scanRate * dt) // float64 rounds the product: no fused multiply-add (make vet)
	if scans <= 0 {
		return 0
	}

	// Random with replacement: scans hit susceptibles at density S/2^32.
	newInf := e.sampleCount(scans * (e.susceptible / universe))
	if newInf > e.susceptible {
		newInf = e.susceptible
	}
	e.susceptible -= newInf
	e.infected += newInf

	// Countermeasure: immunize remaining susceptibles.
	if e.patchRate > 0 && e.susceptible > 0 {
		patched := e.susceptible * e.patchRate * dt
		if patched > e.susceptible {
			patched = e.susceptible
		}
		e.susceptible -= patched
		e.immunized += patched
	}

	// The telescope's share of the scans lands in it.
	pTel := float64(e.Cfg.Telescope.Size()) / universe
	hits := int(e.sampleCount(scans * pTel))
	if hits > 0 {
		e.stats.TelescopeHits += uint64(hits)
		if !e.stats.SeenTelescope {
			e.stats.SeenTelescope = true
			e.stats.FirstTelescopeHit = now
		}
	}
	return hits
}

// sampleCount draws an integer-valued realization of a rate with mean m
// (Poisson for small means, normal approximation for large).
func (e *Epidemic) sampleCount(m float64) float64 {
	switch {
	case m <= 0:
		return 0
	case m < 30:
		// Knuth's Poisson.
		l := math.Exp(-m)
		k, p := 0, 1.0
		for p > l {
			k++
			p *= e.rng.Float64()
		}
		return float64(k - 1)
	default:
		v := e.rng.Normal(m, math.Sqrt(m))
		if v < 0 {
			return 0
		}
		return math.Round(v)
	}
}

// scan materializes into rec one telescope-bound probe at time at from
// a random infected host to a uniformly drawn telescope address.
func (e *Epidemic) scan(at sim.Time, rec *telescope.Record) {
	src := e.randomExternal()
	dst := e.Cfg.Telescope.Nth(e.rng.Uint64n(e.Cfg.Telescope.Size()))
	*rec = telescope.Record{
		At: at, Src: src, Dst: dst, Proto: e.Cfg.Proto,
		SrcPort: uint16(1024 + e.rng.Intn(60000)), DstPort: e.Cfg.Port,
		PayLen: uint16(len(e.Cfg.ExploitPayload)), Payload: e.Cfg.ExploitPayload,
	}
	if e.Cfg.Proto != netsim.ProtoUDP {
		rec.Proto = netsim.ProtoTCP
		rec.Flags = netsim.FlagSYN
		if len(e.Cfg.ExploitPayload) > 0 {
			rec.Flags |= netsim.FlagPSH
		}
	}
}

func (e *Epidemic) randomExternal() netsim.Addr {
	for {
		a := netsim.Addr(e.rng.Uint64n(1 << 32))
		if !e.Cfg.Telescope.Contains(a) && a != 0 {
			return a
		}
	}
}

// StartResponse deploys a countermeasure (signature push, patch
// rollout): from this call on, the remaining susceptible population is
// immunized at fracPerSec fraction per second. This is what a honeyfarm
// buys — the earlier the capture, the earlier this fires, the smaller
// the epidemic.
func (e *Epidemic) StartResponse(fracPerSec float64) {
	e.patchRate = fracPerSec
}

// Immunized returns how many hosts the response has protected.
func (e *Epidemic) Immunized() int { return int(e.immunized) }

// InjectLeak feeds a packet that escaped the honeyfarm back into the
// outside world. A leaked exploit hits a susceptible host with the
// global density probability; that is how an open honeyfarm accelerates
// the epidemic it is meant to observe. It draws from the epidemic's
// RNG, so call it only on the goroutine that reads Source: a farm's
// egress callback qualifies when the engine runs its shards on the
// driving goroutine (sequentially), never under Parallel.
func (e *Epidemic) InjectLeak(pkt *netsim.Packet) {
	if len(pkt.Payload) == 0 || e.Cfg.Telescope.Contains(pkt.Dst) {
		return
	}
	if e.rng.Float64() < e.susceptible/universe {
		e.susceptible--
		e.infected++
		e.stats.LeakInfections++
	}
}
