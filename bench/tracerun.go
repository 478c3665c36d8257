package main

import (
	"fmt"
	"runtime"
	"time"

	"potemkin"
	"potemkin/internal/netsim"
	"potemkin/internal/scenario"
	"potemkin/internal/telescope"
)

// The ledger (-trace 1) run of each workload. Four steps, never used for
// end-to-end numbers:
//
//  1. a reference pass through the facade, untraced but for spans around
//     the facade calls themselves: wall per packet, process counters;
//  2. the same input through the seam-decorated pipeline, which must
//     reach the same Stats: per-layer self times;
//  3. the workload's engine arms, where it has them;
//  4. isolated probes on the workload's own packets, then the ledger
//     that reconciles 2 and 4 against the wall.

// passCost is what a pass's timed region cost the process.
type passCost struct {
	wall          time.Duration
	before, after procSample
}

func (c *passCost) open()  { c.before = readProc() }
func (c *passCost) close() { c.after = readProc(); c.wall = c.after.wall.Sub(c.before.wall) }

// procMetrics reports the reference pass's process counters per packet.
func procMetrics(r *run, c passCost, pkts uint64, simTime time.Duration) {
	n := float64(pkts)
	r.set("proc.cpu_us_per_pkt", float64((c.after.cpu-c.before.cpu).Microseconds())/n)
	r.set("proc.allocs_per_pkt", float64(c.after.mallocs-c.before.mallocs)/n)
	r.set("proc.gc_cycles", float64(c.after.gcCycles-c.before.gcCycles))
	r.set("proc.gc_pause_ms", float64((c.after.gcPause-c.before.gcPause).Microseconds())/1000)
	r.set("sim_s_per_wall_s", simTime.Seconds()/c.wall.Seconds())
}

// finishTrace runs the probes, reconciles, and writes the spans.
func finishTrace(r *run, sp *seamSpans, lw ledgerWindow, in probeInput, ref, traced passCost, wire bool) error {
	in.pending = lw.pending
	if err := runProbes(r, in, engineConfig(radiationOptions(r.cfg.Seed), armShards, true)); err != nil {
		return err
	}
	r.ledger = reconcile(r, sp, lw, wire)
	r.set("bench.trace_overhead_frac", traced.wall.Seconds()/ref.wall.Seconds()-1)
	r.set("proc.peak_rss_mib", peakRSSMiB())
	path, err := sp.tr.write(r.cfg.OutDir, r.cfg.Workload)
	if err != nil {
		return err
	}
	r.spansPath = path
	return nil
}

// ingestMetrics reports the listener's accounting.
func ingestMetrics(r *run, in potemkin.IngestSummary, sent uint64) {
	r.set("loss_frac", 1-float64(in.Delivered)/float64(sent))
	r.set("ingest.queue_hwm", float64(in.QueueHWM))
	r.set("ingest.queue_drops", float64(in.Dropped))
	r.set("ingest.seq_gaps", float64(in.SeqGaps))
	r.set("ingest.frame_errors", float64(in.FrameErrors))
	r.set("ingest.clamped", float64(in.Clamped))
	r.set("ingest.conservation_gap", float64(int64(in.Received)-int64(in.Delivered+in.Dropped+in.FrameErrors)))
}

// closedPass feeds warm-up then the timed frames through a pipe and
// times the region from the generator's side: first timed frame sent to
// last timed frame delivered.
func closedPass(mk func() (wirePipe, error), frame frameFn, sz closedSizes) (wirePipe, passCost, uint64, error) {
	var cost passCost
	var sent uint64
	pipe, err := wireSession(mk, closedFeed(frame, func(g *closedLoop) error {
		if err := g.send(uint64(sz.warm)); err != nil {
			return err
		}
		runtime.GC()
		cost.open()
		if err := g.send(uint64(sz.slice * sz.slices)); err != nil {
			return err
		}
		sent = g.sent
		err := await(g.pipe, func(in potemkin.IngestSummary) bool { return in.Delivered >= sent })
		cost.close()
		return err
	}))
	return pipe, cost, sent, err
}

// traceClosedLoop is the ledger run of wire-warm and wire-synflood.
func traceClosedLoop(r *run, frame frameFn) error {
	sz := closedLoopSizes(r.cfg)
	sz.slices = max(sz.slices/3, r.cfg.minSamples())
	timed := uint64(sz.slice * sz.slices)
	opts := wireOptions(r.cfg.Seed, 0)
	sp := newSeamSpans()

	refPipe, ref, sent, err := closedPass(func() (wirePipe, error) { return newFacadePipe(opts, sp) }, frame, sz)
	if err != nil {
		return err
	}
	var refStats potemkin.Stats
	sp.call("Stats", func() { refStats = refPipe.Stats() })
	in := refPipe.Ingest()
	r.set("sim_clone_ms_p50", refPipe.(*facadePipe).hf.Snapshot().CloneMs.P50)
	refPipe.Close()
	wireChecks(r, in, refStats, sent, true)
	ingestMetrics(r, in, sent)
	procMetrics(r, ref, timed, time.Duration(timed)*frameGap)

	sp.tr.iter = 1
	var seam *seamPipe
	var lw ledgerWindow
	pipe, traced, _, err := closedPass(func() (wirePipe, error) {
		p, err := newSeamPipe(opts, sp)
		if err != nil {
			return nil, err
		}
		seam = p
		p.ts.mark, p.ts.at = uint64(sz.warm), func() { lw = p.openWindow() }
		return p, nil
	}, frame, sz)
	if err != nil {
		return err
	}
	seam.closeWindow(&lw)
	r.check("seams-match-facade", pipe.Stats() == refStats,
		"decorated pipeline reached %+v, facade %+v", pipe.Stats(), refStats)
	pipe.Close()

	probes := probeInputFrom(func(i uint64, pkt *netsim.Packet) bool { frame(i, pkt); return true })
	probes.frame = frame
	return finishTrace(r, sp, lw, probes, ref, traced, true)
}

func perDelivered(ol openLoop) float64 {
	return ol.after.wall.Sub(ol.before.wall).Seconds() / float64(ol.deliveredTimed)
}

// traceColdOverload is the ledger run of wire-cold-overload. Its loss
// depends on wall time, so the two passes' Stats cannot be compared; the
// ledger window is the whole feed, warm-up included.
func traceColdOverload(r *run) error {
	sz := coldLoopSizes(r.cfg)
	sz.timed /= 2
	sz.slice = sz.timed / 5
	opts := coldOptions(r.cfg.Seed)
	sp := newSeamSpans()

	openPass := func(mk func() (wirePipe, error)) (wirePipe, openLoop, error) {
		var ol openLoop
		pipe, err := wireSession(mk, func(pipe wirePipe) (uint64, error) {
			var err error
			ol, err = offerOpenLoop(pipe, coldFrames(r.cfg.Seed), sz, func() {})
			return ol.sent, err
		})
		return pipe, ol, err
	}
	refPipe, ol, err := openPass(func() (wirePipe, error) { return newFacadePipe(opts, sp) })
	if err != nil {
		return err
	}
	var refStats potemkin.Stats
	sp.call("Stats", func() { refStats = refPipe.Stats() })
	in := refPipe.Ingest()
	r.set("sim_clone_ms_p50", refPipe.(*facadePipe).hf.Snapshot().CloneMs.P50)
	refPipe.Close()
	wireChecks(r, in, refStats, ol.sent, false)
	ingestMetrics(r, in, ol.sent)
	late, sentFrac := coldValidity(r, ol)
	r.set("gen.late_p99_us", late)
	r.set("gen.sent_frac", sentFrac)
	ref := passCost{wall: ol.after.wall.Sub(ol.before.wall), before: ol.before, after: ol.after}
	procMetrics(r, ref, ol.deliveredTimed, sz.timed)

	sp.tr.iter = 1
	var seam *seamPipe
	var lw ledgerWindow
	pipe, ol2, err := openPass(func() (wirePipe, error) {
		p, err := newSeamPipe(opts, sp)
		if err != nil {
			return nil, err
		}
		seam = p
		p.ts.at = func() { lw = p.openWindow() }
		return p, nil
	})
	if err != nil {
		return err
	}
	seam.closeWindow(&lw)
	wireChecks(r, pipe.Ingest(), pipe.Stats(), ol2.sent, false)
	pipe.Close()
	// Open loop: wall is fixed by the schedule, so tracing's cost shows
	// as wall per delivered packet.
	traced := passCost{wall: time.Duration(float64(ref.wall) * perDelivered(ol2) / perDelivered(ol))}

	cf := coldFrames(r.cfg.Seed)
	probes := probeInputFrom(func(i uint64, pkt *netsim.Packet) bool { cf(i, pkt); return true })
	probes.frame = coldFrames(r.cfg.Seed)
	return finishTrace(r, sp, lw, probes, ref, traced, true)
}

// traceReplay is the ledger run of replay-radiation.
func traceReplay(r *run) error {
	t0 := time.Now()
	recs, err := generateRadiation(r.cfg, 0)
	if err != nil {
		return err
	}
	r.set("telescope.generate_s", time.Since(t0).Seconds())
	opts := radiationOptions(r.cfg.Seed)
	sp := newSeamSpans()

	// A warm-up replay first, so the reference pass does not pay for
	// growing the heap and the traced pass after it ride for free.
	if _, err := replayOnce(opts, recs, nil, false); err != nil {
		return err
	}

	// Reference pass: the facade's default engine.
	var ref passCost
	var refStats potemkin.Stats
	var hf *potemkin.Honeyfarm
	sp.call("New", func() { hf, err = potemkin.New(opts) })
	if err != nil {
		return err
	}
	runtime.GC()
	ref.open()
	var n int
	sp.call("Replay", func() { n, err = hf.Replay(potemkin.SliceSource(recs)) })
	if err == nil && n != len(recs) {
		err = fmt.Errorf("replay injected %d of %d records", n, len(recs))
	}
	if err != nil {
		hf.Close()
		return err
	}
	sp.call("RunFor", func() { hf.RunFor(radiationTail) })
	ref.close()
	sp.call("Stats", func() { refStats = hf.Stats() })
	d, derr := simDigest(hf)
	r.set("sim_clone_ms_p50", hf.Snapshot().CloneMs.P50)
	sp.call("Close", hf.Close)
	if derr != nil {
		return derr
	}
	r.digest("default/0", d)
	r.ops(uint64(len(recs)), 0)
	procMetrics(r, ref, refStats.InboundPackets, refStats.Now)

	// Decorated pass.
	sp.tr.iter = 1
	sf, err := assemble(opts, sp, nil)
	if err != nil {
		return err
	}
	runtime.GC()
	var traced passCost
	traced.open()
	lw := sf.openWindow()
	_, err = sf.replay(&tracedSource{sp: sp, inner: &telescope.SliceSource{Recs: recs}}, time.Millisecond)
	if err == nil {
		sf.runFor(radiationTail)
		traced.close()
		sf.closeWindow(&lw)
		r.check("seams-match-facade", sf.stats() == refStats, "decorated pipeline reached %+v, facade %+v", sf.stats(), refStats)
	}
	sf.close()
	if err != nil {
		return err
	}

	if err := radiationArms(r, recs); err != nil {
		return err
	}
	return finishTrace(r, sp, lw, probeInputFromRecords(recs), ref, traced, false)
}

// traceScenario is the ledger run of scenario-outbreak.
func traceScenario(r *run) error {
	opts, err := outbreakOptions(r.cfg)
	if err != nil {
		return err
	}
	t0 := time.Now()
	plan, err := scenario.Compile(opts.Scenario, r.cfg.Seed, netsim.MustParsePrefix("10.5.0.0/16"))
	if err != nil {
		return err
	}
	r.set("scenario.compile_s", time.Since(t0).Seconds())
	sp := newSeamSpans()

	// A warm-up run first, so the reference pass does not pay for growing
	// the heap to 2 GB and the traced pass after it ride for free.
	if _, err := outbreakOnce(opts, nil, false); err != nil {
		return err
	}

	// Reference pass: the facade (a one-shard engine under the hood).
	var ref passCost
	var refStats potemkin.Stats
	var hf *potemkin.Honeyfarm
	sp.call("New", func() { hf, err = potemkin.New(opts) })
	if err != nil {
		return err
	}
	runtime.GC()
	ref.open()
	var card *potemkin.Scorecard
	sp.call("RunScenario", func() { card, err = hf.RunScenario() })
	if err != nil {
		hf.Close()
		return err
	}
	ref.close()
	sp.call("Stats", func() { refStats = hf.Stats() })
	d, derr := simDigest(hf)
	r.set("sim_clone_ms_p50", hf.Snapshot().CloneMs.P50)
	sp.call("Close", hf.Close)
	if derr != nil {
		return derr
	}
	r.digest("default", d)
	r.ops(uint64(card.Facts.Steps), 0)
	procMetrics(r, ref, refStats.InboundPackets, refStats.Now)
	r.set("sim_ttd_ms", card.FirstDetectMS)
	r.set("sim_leak_pct", card.LeakRatePct)

	// Decorated pass, on the one-shard engine assembly.
	sp.tr.iter = 1
	sf, err := assemble(opts, sp, plan)
	if err != nil {
		return err
	}
	runtime.GC()
	var traced passCost
	traced.open()
	lw := sf.openWindow()
	_, err = sf.replay(&tracedSource{sp: sp, inner: &telescope.SliceSource{Recs: plan.Records}}, plan.Settle)
	if err == nil {
		traced.close()
		sf.closeWindow(&lw)
		r.check("seams-match-facade", sf.stats() == refStats, "decorated pipeline reached %+v, facade %+v", sf.stats(), refStats)
	}
	sf.close()
	sf = nil // a 2 GB farm: let the arms' collector have it
	if err != nil {
		return err
	}

	if err := outbreakArms(r, opts); err != nil {
		return err
	}
	return finishTrace(r, sp, lw, probeInputFromRecords(plan.Records), ref, traced, false)
}
