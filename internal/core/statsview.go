package core

import (
	"time"

	"potemkin/internal/farm"
	"potemkin/internal/gateway"
	"potemkin/internal/guest"
	"potemkin/internal/metrics"
	"potemkin/internal/sim"
	"potemkin/internal/vmm"
)

// publishEvery is the simulated time between mid-run publications: a
// scrape lags the farm by at most this plus one epoch. A publication
// walks the live guests, about 35 ns each: every 100 ms that measured 6%
// of a scenario run with 4,000 of them, every second it is below 1%.
const publishEvery = time.Second

// Totals is the one sum of a set of shard domains' counters and
// histograms. Stats, Snapshot, the registry's gateway_*, farm_*, vmm_*
// and guest_* series, a scorecard and a cluster worker's reply are all
// read from it.
type Totals struct {
	Gateway gateway.Stats
	Farm    farm.Stats
	Host    vmm.HostStats
	// Guest is cumulative: the live guests' counters plus the final ones
	// of every guest the farms have stopped (guest_*_total).
	Guest guest.Stats

	LiveVMs     int
	InfectedVMs int
	Memory      uint64 // modeled bytes across servers
	DNSQueries  uint64 // lookups the safe resolvers served
	OpenSpans   int    // the tracers' unfinished spans

	// The histograms, one per source, never merged here: each host's
	// clone latency (shard, then host order), each gateway's detect time,
	// each farm's deception actions and each tracer's stage latencies
	// (tracing on). Readers merge them in this order in every mode.
	Clone     []*metrics.Histogram
	Detect    []*metrics.Histogram
	Deception []*metrics.Histogram
	Stages    []map[string]*metrics.Histogram
}

// Add accumulates o into t: every counter adds and every histogram list
// appends. Peaks add too (farm.Stats.PeakLiveVMs,
// gateway.Stats.PeakBindings): summed over shards, a peak is the sum of
// per-shard peaks, an upper bound on the farm-wide peak above one shard.
func (t *Totals) Add(o *Totals) {
	t.Gateway.Add(&o.Gateway)
	t.Farm.Add(&o.Farm)
	t.Host.Add(&o.Host)
	t.Guest.Add(&o.Guest)
	t.LiveVMs += o.LiveVMs
	t.InfectedVMs += o.InfectedVMs
	t.Memory += o.Memory
	t.DNSQueries += o.DNSQueries
	t.OpenSpans += o.OpenSpans
	t.Clone = append(t.Clone, o.Clone...)
	t.Detect = append(t.Detect, o.Detect...)
	t.Deception = append(t.Deception, o.Deception...)
	t.Stages = append(t.Stages, o.Stages...)
}

// FirstDetectMS is the earliest detector firing in simulated
// milliseconds, the smallest sample of the gateways' detect times; it
// means something only when Gateway.DetectedInfected > 0.
func (t *Totals) FirstDetectMS() float64 { return merged(t.Detect).Min() }

// DeceptionActions is the attacker actions guests executed before going
// quiet: the farms' deception samples, summed. Each is a whole number
// of actions, so the sum is exact.
func (t *Totals) DeceptionActions() uint64 { return uint64(merged(t.Deception).Sum()) }

// merged is the merge of hs, in order; of one, a copy.
func merged(hs []*metrics.Histogram) *metrics.Histogram {
	m := new(metrics.Histogram)
	for _, h := range hs {
		m.Merge(h)
	}
	return m
}

// addTo adds the domain's counters to t, with one walk over its live
// guests, and appends its histograms: the domain's own, so t reads them
// only while the domain is stopped.
func (d *ShardDomain) addTo(t *Totals) {
	gt, infected := d.F.GuestCumulative()
	t.Add(&Totals{
		Gateway: d.G.Stats(), Farm: d.F.Stats(), Host: d.F.HostStats(), Guest: gt,
		LiveVMs: d.F.LiveVMs(), InfectedVMs: infected, Memory: d.F.MemoryInUse(),
		DNSQueries: d.Resolver.Queries, OpenSpans: d.tracer.OpenSpans(),
		Detect:    []*metrics.Histogram{d.G.DetectTime()},
		Deception: []*metrics.Histogram{d.F.Deception()},
	})
	for _, h := range d.F.Hosts() {
		t.Clone = append(t.Clone, &h.CloneLatency)
	}
	if names := d.tracer.StageNames(); len(names) > 0 {
		stages := make(map[string]*metrics.Histogram, len(names))
		for _, name := range names {
			stages[name] = d.tracer.Stage(name)
		}
		t.Stages = append(t.Stages, stages)
	}
}

// sumTotals sets t to the sum of the domains' Totals, keeping the
// storage of its histogram lists; the histograms are the domains' own.
func sumTotals(t *Totals, domains []*ShardDomain) {
	*t = Totals{Clone: t.Clone[:0], Detect: t.Detect[:0], Deception: t.Deception[:0], Stages: t.Stages[:0]}
	for _, d := range domains {
		d.addTo(t)
	}
}

// ownTotals is the sum of the domains' Totals with copies of their
// histograms, which stay what they were when read.
func ownTotals(domains []*ShardDomain) Totals {
	var t Totals
	sumTotals(&t, domains)
	for _, hs := range [][]*metrics.Histogram{t.Clone, t.Detect, t.Deception} {
		for i := range hs {
			hs[i] = merged(hs[i : i+1])
		}
	}
	for _, stages := range t.Stages { // addTo's fresh maps: safe to overwrite
		for name, h := range stages {
			stages[name] = merged([]*metrics.Histogram{h})
		}
	}
	return t
}

// Totals reads the domain's counters and copies of its histograms.
func (d *ShardDomain) Totals() Totals { return ownTotals([]*ShardDomain{d}) }

// StatsView makes the registry's gateway_*, farm_*, vmm_* and guest_*
// series a view over a Totals: the engine's domains', summed into the
// view's own (Publish), or one a cluster coordinator gathered from its
// workers (Store). Nothing records into the registry per event, and
// publishing allocates nothing.
type StatsView struct {
	domains                    []*ShardDomain
	gateway, farm, host, guest *metrics.Exporter
	clone, detect, deception   *metrics.Hist

	pace Pace // due from clock 0: a run's first barrier publishes
	sum  Totals
}

// NewStatsView resolves the four Stats types' series and the three
// histograms on reg, for a view over domains (none for a coordinator's).
// A nil registry yields a nil view, whose methods do nothing.
func NewStatsView(reg *metrics.Registry, domains []*ShardDomain) *StatsView {
	if reg == nil {
		return nil
	}
	return &StatsView{
		domains:   domains,
		pace:      Pace{period: sim.Time(publishEvery)},
		gateway:   metrics.NewExporter(reg, gateway.Stats{}),
		farm:      metrics.NewExporter(reg, farm.Stats{}),
		host:      metrics.NewExporter(reg, vmm.HostStats{}),
		guest:     metrics.NewExporter(reg, guest.Stats{}),
		clone:     reg.Hist("vmm_clone_ms"),
		detect:    reg.Hist("gateway_detect_time_ms"),
		deception: reg.Hist("guest_deception_actions"),
	}
}

// Publish brings the registry up to date with the view's domains. Call
// it only while they are stopped (at a barrier, between runs), from the
// goroutine that drives them; any goroutine may then read the registry
// at any time.
func (v *StatsView) Publish() {
	if v == nil {
		return
	}
	sumTotals(&v.sum, v.domains)
	v.Store(&v.sum)
}

// Store publishes t into the registry.
func (v *StatsView) Store(t *Totals) {
	if v == nil {
		return
	}
	v.gateway.Publish(&t.Gateway)
	v.farm.Publish(&t.Farm)
	v.host.Publish(&t.Host)
	v.guest.Publish(&t.Guest)
	v.clone.Store(t.Clone)
	v.detect.Store(t.Detect)
	v.deception.Store(t.Deception)
}

// Due reports whether the barrier at now is one the view publishes at:
// the first at or past each publishEvery of simulated time.
func (v *StatsView) Due(now sim.Time) bool { return v != nil && v.pace.Due(now) }

// PublishDue is Publish at the barriers Due picks, and nothing at the
// barriers between.
func (v *StatsView) PublishDue(now sim.Time) {
	if v.Due(now) {
		v.Publish()
	}
}

// Pace picks the epoch barriers a periodic observer acts at: the first
// at or past each multiple of its period of simulated time. The
// telemetry view publishes on one and the progress observer reports on
// another (ShardEngine.SetProgress, the cluster coordinator's), so
// neither puts an event on any kernel.
type Pace struct {
	period sim.Time
	next   sim.Time // the barrier clock Due next reports at
}

// NewPace returns a pace whose first due barrier is the first at or
// past the first multiple of period after from.
func NewPace(period time.Duration, from sim.Time) Pace {
	p := Pace{period: sim.Time(period)}
	p.next = p.after(from)
	return p
}

// Due reports whether the barrier at now is due and, when it is, moves
// the pace on to the first multiple of the period past now.
func (p *Pace) Due(now sim.Time) bool {
	if now < p.next {
		return false
	}
	p.next = p.after(now)
	return true
}

// after is the first multiple of the period past t.
func (p *Pace) after(t sim.Time) sim.Time { return t - t%p.period + p.period }
