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

// StatsView makes the registry's gateway_*, farm_*, vmm_* and guest_*
// series a view over what a set of shard domains count — the engine's,
// or a cluster worker's: nothing records into the registry per event.
// Publish stores the sums of the domains' Stats structs, summed in the
// view's own fields, and their Histograms, merged in shard order, so
// that publishing allocates nothing.
type StatsView struct {
	domains                    []*ShardDomain
	gateway, farm, host, guest *metrics.Exporter
	hists                      []histView

	next sim.Time // the barrier clock PublishDue next acts at
	gs   gateway.Stats
	fs   farm.Stats
	hs   vmm.HostStats
	us   guest.Stats
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
	v.gs, v.fs, v.hs, v.us = gateway.Stats{}, farm.Stats{}, vmm.HostStats{}, guest.Stats{}
	for _, d := range v.domains {
		gs, fs, hs, us := d.G.Stats(), d.F.Stats(), d.F.HostStats(), d.F.GuestCumulative()
		v.gs.Add(&gs)
		v.fs.Add(&fs)
		v.hs.Add(&hs)
		v.us.Add(&us)
	}
	v.gateway.Publish(&v.gs)
	v.farm.Publish(&v.fs)
	v.host.Publish(&v.hs)
	v.guest.Publish(&v.us)
	for _, hv := range v.hists {
		hv.h.Store(hv.srcs)
	}
}

// PublishDue is Publish at the first barrier at or past each
// publishEvery of simulated time, and nothing at the barriers between.
func (v *StatsView) PublishDue(now sim.Time) {
	if v == nil || now < v.next {
		return
	}
	v.next = now - now%sim.Time(publishEvery) + sim.Time(publishEvery)
	v.Publish()
}
