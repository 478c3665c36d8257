package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"

	"potemkin"
	"potemkin/internal/ingest"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
)

// coldSizes are the open loop's durations.
type coldSizes struct {
	warm  time.Duration // open-loop warm-up before the timed region
	timed time.Duration
	slice time.Duration // goodput sampling period
}

// coldLoopSizes: goodput under overload oscillates with a period near
// clone time plus idle timeout (~1.5–2 s), so a slice spans one period
// and the region five.
func coldLoopSizes(cfg runConfig) coldSizes {
	sz := coldSizes{
		warm:  time.Duration(float64(1500*time.Millisecond) * cfg.Scale),
		timed: time.Duration(float64(cfg.Seconds) * float64(time.Second) * cfg.Scale),
	}
	if sz.warm < 200*time.Millisecond {
		sz.warm = 200 * time.Millisecond
	}
	if sz.timed < 500*time.Millisecond {
		sz.timed = 500 * time.Millisecond
	}
	sz.slice = sz.timed / 5
	return sz
}

// openLoop is what one open-loop feed measured.
type openLoop struct {
	scheduled, sent uint64
	lateUS          []float64 // per tick: how far behind its due time it ran
	goodput         []float64 // per slice: frames delivered per wall second
	deliveredTimed  uint64    // over the timed region
	sentTimed       uint64
	before, after   procSample
}

// offerOpenLoop offers coldRate frames per second for warm+timed, in
// 1 ms ticks. The generator sleeps, never spins: it is the one sending
// goroutine, locked to its thread and sleeping in the kernel, because a
// goroutine woken by the Go timer waits for a free P behind the
// simulation and the collector (measured p99 lateness 16–23 ms against
// 5–8 ms this way). Each frame's virtual timestamp is its due time, so
// simulated time tracks the schedule, not the lateness. onTimed runs as
// the timed region begins.
func offerOpenLoop(pipe wirePipe, frame frameFn, sz coldSizes, onTimed func()) (openLoop, error) {
	var ol openLoop
	s, err := ingest.DialWire(pipe.Addr(), 1, true)
	if err != nil {
		return ol, err
	}
	defer s.Close()
	perTick := uint64(coldRate * coldTick / time.Second)
	ticks := int((sz.warm + sz.timed) / coldTick)
	warmTicks := int(sz.warm / coldTick)
	sliceTicks := int(sz.slice / coldTick)
	var pkt netsim.Packet
	var mark time.Time
	var markDelivered, firstDelivered, firstSent uint64

	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := time.Now()
	for k := 0; k < ticks; k++ {
		due := start.Add(time.Duration(k) * coldTick)
		if d := time.Until(due); d > 0 {
			ts := syscall.NsecToTimespec(int64(d))
			syscall.Nanosleep(&ts, nil) // an early wake only makes the tick early by less than it slept
		}
		now := time.Now()
		switch {
		case k == warmTicks:
			onTimed()
			ol.before = readProc()
			mark, markDelivered = ol.before.wall, pipe.Ingest().Delivered
			firstDelivered, firstSent = markDelivered, ol.sent
		case k > warmTicks && (k-warmTicks)%sliceTicks == 0:
			d := pipe.Ingest().Delivered
			ol.goodput = append(ol.goodput, float64(d-markDelivered)/now.Sub(mark).Seconds())
			mark, markDelivered = now, d
		}
		lag := now.Sub(due)
		ol.lateUS = append(ol.lateUS, float64(lag)/float64(time.Microsecond))
		ol.scheduled += perTick
		if lag > coldSkipLag {
			continue
		}
		for j := uint64(0); j < perTick; j++ {
			frame(ol.sent, &pkt)
			ts := time.Duration(k)*coldTick + time.Duration(j)*coldTick/time.Duration(perTick)
			if err := s.SendPacket(sim.Time(ts), &pkt); err != nil {
				return ol, err
			}
			ol.sent++
		}
	}
	ol.after = readProc()
	d := pipe.Ingest().Delivered
	ol.goodput = append(ol.goodput, float64(d-markDelivered)/ol.after.wall.Sub(mark).Seconds())
	ol.deliveredTimed, ol.sentTimed = d-firstDelivered, ol.sent-firstSent
	return ol, nil
}

// coldValidity applies the open loop's validity rules and returns the
// generator's p99 lateness and the share of its schedule it sent. The
// lateness limit is the skip lag: a tick later than that is not sent, so
// past it the offered load itself is short (see README, findings).
func coldValidity(r *run, ol openLoop) (lateP99US, sentFrac float64) {
	late := append([]float64(nil), ol.lateUS...)
	sort.Float64s(late)
	lateP99US, sentFrac = quantile(late, 0.99), float64(ol.sent)/float64(ol.scheduled)
	if limit := float64(coldSkipLag / time.Microsecond); lateP99US > limit {
		r.invalidate("generator late: p99 %.0f us > %.0f us", lateP99US, limit)
	}
	if sentFrac < 0.99 {
		r.invalidate("generator sent %.4f of its schedule (< 0.99)", sentFrac)
	}
	return lateP99US, sentFrac
}

// coldOptions is wire-cold-overload's farm.
func coldOptions(seed uint64) potemkin.Options { return wireOptions(seed, time.Second) }

// runColdOverload is the untraced wire-cold-overload run. It sets up
// once: the warm-up is paced by the clock, so repeating it would only
// leave gigabytes of garbage for the timed region's collector.
func runColdOverload(r *run) error {
	sz := coldLoopSizes(r.cfg)
	var ol openLoop
	pipe, err := wireSession(
		func() (wirePipe, error) { return newFacadePipe(coldOptions(r.cfg.Seed), nil) },
		func(pipe wirePipe) (uint64, error) {
			var err error
			ol, err = offerOpenLoop(pipe, coldFrames(r.cfg.Seed), sz, func() {
				r.sample("setup_s", time.Since(processStart).Seconds())
			})
			return ol.sent, err
		})
	if err != nil {
		return err
	}
	defer pipe.Close()
	for _, v := range ol.goodput {
		r.sample("pps", v)
	}
	r.set("alloc_kib_per_pkt", float64(ol.after.alloc-ol.before.alloc)/1024/float64(ol.deliveredTimed))
	r.set("live_heap_mib", liveHeapMiB())
	coldValidity(r, ol)
	wireChecks(r, pipe.Ingest(), pipe.Stats(), ol.sent, false)
	r.set("sim_mib_per_vm", simMiBPerVM(pipe.Stats()))
	return nil
}

func init() {
	workloads[wCold] = workload{
		why: "open loop at a fixed 12,000 pps to random addresses: every frame is a cold bind (farm spawn, flash clone, guest start, CoW) and the bounded ingest queue sheds; the only workload with loss by design",
		run: func(r *run) error {
			if r.cfg.Trace {
				return traceColdOverload(r)
			}
			return runColdOverload(r)
		},
	}
}
