package main

import (
	"fmt"
	"sort"
	"time"

	"potemkin/internal/guest"
)

// seamCounts is a point reading of the layer counters the ledger
// differences over its window. Read it on the replay goroutine.
type seamCounts struct {
	inbound, delivered, bindings, recycled, reflected uint64
	spawns, spawnFailures, spawnRetries               uint64
	clones, cowCopies, dedupHits, frameAllocs         uint64
	fired                                             uint64
	guestIn, accepted, evicted                        uint64
}

func (s *seamFarm) counts() seamCounts {
	gs, fs := s.g.Stats(), s.f.Stats()
	c := seamCounts{
		inbound: gs.InboundPackets, delivered: gs.DeliveredToVM, bindings: gs.BindingsCreated,
		recycled: gs.BindingsRecycled, reflected: gs.OutReflected,
		spawns: fs.Spawns, spawnFailures: fs.SpawnFailures, spawnRetries: fs.SpawnRetries,
		fired: s.k.Fired(),
	}
	for _, h := range s.f.Hosts() {
		c.clones += h.Stats().Clones
		st := h.Store().Stats()
		c.cowCopies += st.CowCopies
		c.dedupHits += st.DedupHits
		c.frameAllocs += st.Allocs
	}
	// Guest counters die with their VM, so they are exact only while no
	// binding has been recycled (the closed-loop wire workloads).
	s.f.EachInstance(func(in *guest.Instance) {
		st := in.Stats()
		c.guestIn += st.PacketsIn
		c.accepted += st.ConnsAccepted
		if st.ConnsAccepted > guestConnTable {
			c.evicted += st.ConnsAccepted - guestConnTable
		}
	})
	return c
}

func (c seamCounts) minus(b seamCounts) seamCounts {
	return seamCounts{
		c.inbound - b.inbound, c.delivered - b.delivered, c.bindings - b.bindings, c.recycled - b.recycled,
		c.reflected - b.reflected,
		c.spawns - b.spawns, c.spawnFailures - b.spawnFailures, c.spawnRetries - b.spawnRetries,
		c.clones - b.clones, c.cowCopies - b.cowCopies, c.dedupHits - b.dedupHits, c.frameAllocs - b.frameAllocs,
		c.fired - b.fired,
		c.guestIn - b.guestIn, c.accepted - b.accepted, c.evicted - b.evicted,
	}
}

// ledgerWindow brackets the traced pass's timed region on the replay
// goroutine: opened there, closed as soon as the replay returns.
type ledgerWindow struct {
	w      window
	atOpen seamCounts
	// Set by closeWindow.
	wall    time.Duration
	spans   []spanTotals
	counts  seamCounts
	pending int // the kernel's event-queue depth at close
}

func (s *seamFarm) openWindow() ledgerWindow {
	return ledgerWindow{w: s.sp.tr.mark(), atOpen: s.counts()}
}

func (s *seamFarm) closeWindow(lw *ledgerWindow) {
	lw.wall, lw.spans = s.sp.tr.since(lw.w)
	lw.counts = s.counts().minus(lw.atOpen)
	lw.pending = s.k.Pending()
}

// ledgerLine is one row of the reconciliation: a layer, where its time
// was measured (a seam span's self time, or a probe times a count), and
// its share of the replay goroutine's wall per dispatched packet.
type ledgerLine struct {
	Layer   string  `json:"layer"`
	Source  string  `json:"source"`
	NsPerPk float64 `json:"ns_per_pkt"`
}

// reconcile emits the closed window's per-layer metrics and the ledger.
// Probe medians must already be sampled into r.
func reconcile(r *run, sp *seamSpans, lw ledgerWindow, wire bool) []ledgerLine {
	wall, d, c := lw.wall, lw.spans, lw.counts
	pkts := float64(c.inbound)
	perPkt := func(t time.Duration) float64 { return float64(t.Nanoseconds()) / pkts }
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}

	var lines []ledgerLine
	var seams time.Duration
	seam := func(layer string, id spanID) {
		seams += d[id].self
		lines = append(lines, ledgerLine{layer, "seam " + sp.tr.names[id], perPkt(d[id].self)})
	}
	seam("ingest", sp.feedWait)
	seam("ingest", sp.sourceRead)
	seam("gateway", sp.inbound)
	seam("gateway", sp.outbound)
	seam("gateway", sp.ready)
	seam("farm", sp.requestVM)
	seam("guest", sp.deliver)
	seam("guest", sp.destroy)
	seam("facade", sp.externalOut)
	residual := wall - seams

	// What the residual should hold, from isolated probes times exact
	// counts. Guest flow states are exact only without recycling.
	probe := func(name string) float64 { return median(r.samples[name]) }
	known, fresh, evict := c.guestIn-c.accepted, c.accepted-c.evicted, c.evicted
	if lw.atOpen.recycled+c.recycled > 0 {
		known, fresh, evict = 0, c.delivered, 0 // radiation and cold frames open a flow on a fresh guest
	}
	est := func(layer, what string, n uint64, probeName string) {
		lines = append(lines, ledgerLine{layer, fmt.Sprintf("probe %s x %d %s", probeName, n, what), float64(n) * probe(probeName) / pkts})
	}
	est("guest", "known-flow SYNs", known, "guest.syn_known_ns")
	est("guest", "new-flow SYNs", fresh, "guest.syn_new_ns")
	est("guest", "evicting SYNs", evict, "guest.syn_evict_ns")
	est("mem", "CoW copies (guest start bursts and page-touch timers)", c.cowCopies, "mem.cow_write_ns")
	est("vmm", "clones", c.clones, "vmm.flash_clone_ns")
	est("sim", "events", c.fired, "sim.event_ns")

	var attributed float64
	for _, l := range lines {
		attributed += l.NsPerPk
	}
	wallPerPkt := perPkt(wall)
	sort.SliceStable(lines, func(i, j int) bool { return lines[i].NsPerPk > lines[j].NsPerPk })

	if wire {
		r.set("ingest.feed_wait_frac", float64(d[sp.feedWait].total)/float64(wall))
		r.set("ingest.source_read_ns_per_pkt", float64(d[sp.sourceRead].self.Nanoseconds())/float64(max(d[sp.sourceRead].count, 1)))
	}
	r.set("sim.events_per_pkt", float64(c.fired)/pkts)
	r.set("sim.kernel_residual_ns_per_pkt", perPkt(residual))
	r.set("gateway.inbound_self_ns_per_pkt", perPkt(d[sp.inbound].self))
	r.set("gateway.outbound_self_ns_per_pkt", perPkt(d[sp.outbound].self))
	r.set("gateway.reflected_per_pkt", float64(c.reflected)/pkts)
	r.set("gateway.warm_frac", 1-float64(c.bindings)/pkts)
	r.set("farm.request_vm_self_ns_per_spawn", float64(d[sp.requestVM].self.Nanoseconds())/float64(max(d[sp.requestVM].count, 1)))
	r.set("farm.spawn_failures", float64(c.spawnFailures))
	r.set("farm.spawn_retries", float64(c.spawnRetries))
	r.set("vmm.clones_per_pkt", float64(c.clones)/pkts)
	r.set("mem.cow_copies_per_vm", ratio(c.cowCopies, c.spawns))
	r.set("mem.dedup_hit_frac", ratio(c.dedupHits, c.frameAllocs))
	r.set("guest.deliver_self_ns_per_pkt", perPkt(d[sp.deliver].self))
	r.set("ledger.attributed_frac", attributed/wallPerPkt)
	r.set("ledger.unattributed_ns_per_pkt", wallPerPkt-attributed)
	return append(lines,
		ledgerLine{"(unattributed)", "wall - all of the above", wallPerPkt - attributed},
		ledgerLine{"(wall)", fmt.Sprintf("replay goroutine, %d packets", c.inbound), wallPerPkt})
}

// printLedger writes the reconciliation under the metric table.
func printLedger(workload string, lines []ledgerLine) {
	fmt.Printf("ledger[%s], ns per dispatched packet on the replay goroutine:\n", workload)
	for _, l := range lines {
		fmt.Printf("  %12.1f  %-16s %s\n", l.NsPerPk, l.Layer, l.Source)
	}
}
