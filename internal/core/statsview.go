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

// Totals is the one sum of a set of shard domains' counters: what the
// registry's gateway_*, farm_*, vmm_* and guest_* series publish, what
// the facade's Stats and Snapshot report, what a cluster worker ships
// per shard, and what a scorecard is computed from.
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

	// FirstDetectMS is the earliest detector firing in simulated
	// milliseconds, the min of the gateways' DetectTime; it means
	// something only when Gateway.DetectedInfected > 0.
	FirstDetectMS float64
	// Deception is the attacker actions guests executed before going
	// quiet, the sum of the farms' Deception histograms.
	Deception uint64
}

// Add accumulates o into t: every counter adds, and the first detection
// is the earlier of the two. Peaks add too (farm.Stats.PeakLiveVMs,
// gateway.Stats.PeakBindings): summed over shards, a peak is the sum of
// per-shard peaks, an upper bound on the farm-wide peak above one shard.
func (t *Totals) Add(o *Totals) {
	if o.Gateway.DetectedInfected > 0 && (t.Gateway.DetectedInfected == 0 || o.FirstDetectMS < t.FirstDetectMS) {
		t.FirstDetectMS = o.FirstDetectMS
	}
	t.Gateway.Add(&o.Gateway)
	t.Farm.Add(&o.Farm)
	t.Host.Add(&o.Host)
	t.Guest.Add(&o.Guest)
	t.LiveVMs += o.LiveVMs
	t.InfectedVMs += o.InfectedVMs
	t.Memory += o.Memory
	t.DNSQueries += o.DNSQueries
	t.Deception += o.Deception
}

// Totals reads the domain's counters, with one walk over its live
// guests.
func (d *ShardDomain) Totals() Totals {
	t := Totals{
		Gateway:       d.G.Stats(),
		Farm:          d.F.Stats(),
		Host:          d.F.HostStats(),
		LiveVMs:       d.F.LiveVMs(),
		Memory:        d.F.MemoryInUse(),
		DNSQueries:    d.Resolver.Queries,
		FirstDetectMS: d.G.DetectTime().Min(),
		// Each sample is a whole number of actions, so the sum is exact.
		Deception: uint64(d.F.Deception().Sum()),
	}
	t.Guest, t.InfectedVMs = d.F.GuestCumulative()
	return t
}

// sumTotals sums the domains' Totals.
func sumTotals(domains []*ShardDomain) Totals {
	var sum Totals
	for _, d := range domains {
		t := d.Totals()
		sum.Add(&t)
	}
	return sum
}

// StatsView makes the registry's gateway_*, farm_*, vmm_* and guest_*
// series a view over what a set of shard domains count — the engine's,
// or a cluster worker's: nothing records into the registry per event.
// Publish stores the domains' Totals, summed into the view's own field,
// and their Histograms, merged in shard order, so that publishing
// allocates nothing.
type StatsView struct {
	domains                    []*ShardDomain
	gateway, farm, host, guest *metrics.Exporter
	hists                      []histView

	pace Pace // due from clock 0: a run's first barrier publishes
	sum  Totals
}

// histView is one registry histogram and the domains' Histograms it is
// the merge of, in shard order.
type histView struct {
	h    *metrics.Hist
	srcs []*metrics.Histogram
}

// NewStatsView resolves the four Stats types' series and the three
// histograms on reg. A nil registry yields a nil view, whose methods do
// nothing.
func NewStatsView(reg *metrics.Registry, domains []*ShardDomain) *StatsView {
	if reg == nil {
		return nil
	}
	var clone, detect, deception []*metrics.Histogram
	for _, d := range domains {
		for _, h := range d.F.Hosts() {
			clone = append(clone, &h.CloneLatency)
		}
		detect = append(detect, d.G.DetectTime())
		deception = append(deception, d.F.Deception())
	}
	return &StatsView{
		domains: domains,
		pace:    Pace{period: sim.Time(publishEvery)},
		gateway: metrics.NewExporter(reg, gateway.Stats{}),
		farm:    metrics.NewExporter(reg, farm.Stats{}),
		host:    metrics.NewExporter(reg, vmm.HostStats{}),
		guest:   metrics.NewExporter(reg, guest.Stats{}),
		hists: []histView{
			{reg.Hist("vmm_clone_ms"), clone},
			{reg.Hist("gateway_detect_time_ms"), detect},
			{reg.Hist("guest_deception_actions"), deception},
		},
	}
}

// Publish brings the registry up to date. Call it only while the domains
// are stopped (at a barrier, between runs), from the goroutine that
// drives them; any goroutine may then read the registry at any time.
func (v *StatsView) Publish() {
	if v == nil {
		return
	}
	v.sum = sumTotals(v.domains)
	v.gateway.Publish(&v.sum.Gateway)
	v.farm.Publish(&v.sum.Farm)
	v.host.Publish(&v.sum.Host)
	v.guest.Publish(&v.sum.Guest)
	for _, hv := range v.hists {
		hv.h.Store(hv.srcs)
	}
}

// PublishDue is Publish at the first barrier at or past each
// publishEvery of simulated time, and nothing at the barriers between.
func (v *StatsView) PublishDue(now sim.Time) {
	if v != nil && v.pace.Due(now) {
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
