package main

import (
	"fmt"
	"time"

	"potemkin"
	"potemkin/internal/farm"
	"potemkin/internal/gateway"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/telescope"
)

// replay-radiation's input: background radiation over a /16, 1,000 pps
// for 20 s (20k records: Zipf destinations, sweeps, vertical scans),
// replayed in process with a 1 s idle timeout and a 1 s tail.
const (
	radiationSpace = "10.5.0.0/16"
	radiationRate  = 1000
	radiationIdle  = time.Second
	radiationTail  = time.Second
)

func radiationDuration(cfg runConfig) time.Duration {
	d := time.Duration(float64(20*time.Second) * cfg.Scale)
	if d < 500*time.Millisecond {
		d = 500 * time.Millisecond
	}
	return d
}

// generateRadiation synthesizes the i-th trace of the run's seed. A
// trace's mix is lumpy — two seeds in twelve bind 9% fewer addresses —
// so the untraced run replays a different trace on every timed iteration
// and reports medians; the ledger run uses trace 0 throughout.
func generateRadiation(cfg runConfig, i int) ([]telescope.Record, error) {
	gc := telescope.DefaultGenConfig()
	gc.Space = netsim.MustParsePrefix(radiationSpace)
	gc.Duration = radiationDuration(cfg)
	gc.Rate = radiationRate
	gc.Seed = sim.NewRNG(cfg.Seed).Fork(fmt.Sprintf("radiation-%d", i)).Uint64()
	return telescope.Generate(gc)
}

// radiationOptions is the default arm's farm; arms derive from it.
func radiationOptions(seed uint64) potemkin.Options {
	return potemkin.Options{
		Seed: seed, MonitoredSpace: radiationSpace,
		Policy: potemkin.InternalReflect, IdleTimeout: radiationIdle,
	}
}

// iteration is one timed pass over a fresh farm.
type iteration struct {
	finalState
	wall          time.Duration
	before, after procSample
	liveHeapMiB   float64 // read only when asked: it forces a collection
	engine        engineCounters
}

func (it iteration) pps() float64 { return float64(it.stats.InboundPackets) / it.wall.Seconds() }

// replayOnce builds a farm from opts (untimed), then times the replay
// and its tail. prepare, when non-nil, adjusts the built farm before the
// clock starts (the oracle switches its engine to sequential epochs).
func replayOnce(opts potemkin.Options, recs []telescope.Record, prepare func(*potemkin.Honeyfarm), heap bool) (iteration, error) {
	var it iteration
	hf, err := potemkin.New(opts)
	if err != nil {
		return it, err
	}
	defer hf.Close()
	if prepare != nil {
		prepare(hf)
	}
	collectGarbage()
	it.before = readProc()
	n, err := hf.Replay(potemkin.SliceSource(recs))
	if err != nil {
		return it, err
	}
	hf.RunFor(radiationTail)
	it.after = readProc()
	it.wall = it.after.wall.Sub(it.before.wall)
	if n != len(recs) {
		return it, fmt.Errorf("replay injected %d of %d records", n, len(recs))
	}
	it.engine = readEngine(hf)
	if it.finalState, err = readFinalState(hf); err != nil {
		return it, err
	}
	if heap {
		it.liveHeapMiB = liveHeapMiB()
	}
	return it, nil
}

// engineCounters are a shard engine's own totals, which is what a
// cluster coordinator reports; all zero on the classic engine.
type engineCounters struct {
	epochs  uint64 // epoch barriers crossed
	gateway gateway.Stats
	farm    farm.Stats
	liveVMs int
	memory  uint64
}

func readEngine(hf *potemkin.Honeyfarm) engineCounters {
	eng := hf.Internals().Engine
	if eng == nil {
		return engineCounters{}
	}
	c := engineCounters{gateway: eng.GatewayStats(), farm: eng.FarmStats(), liveVMs: eng.LiveVMs(), memory: eng.MemoryInUse()}
	if b, ok := eng.Barrier().(interface{ Epochs() uint64 }); ok {
		c.epochs = b.Epochs()
	}
	return c
}

// timedIterations sizes a region of about the asked seconds from the
// wall one iteration took on the reference host, keeping at least five.
func timedIterations(cfg runConfig, perIter time.Duration) int {
	return max(int(time.Duration(cfg.Seconds)*time.Second/perIter), cfg.minSamples())
}

// runReplay is the untraced replay-radiation run: the default engine.
func runReplay(r *run) error {
	began := processStart
	// Set-up is input generation plus one warm-up replay; repeated so
	// setup_s is a median, and so trace 0's digest is seen to repeat.
	for i := 0; i < r.cfg.setupRepeats(); i++ {
		recs, err := generateRadiation(r.cfg, 0)
		if err != nil {
			return err
		}
		it, err := replayOnce(radiationOptions(r.cfg.Seed), recs, nil, false)
		if err != nil {
			return err
		}
		r.digest("default/0", it.digest())
		r.sample("setup_s", time.Since(began).Seconds())
		began = time.Now()
	}
	iters := timedIterations(r.cfg, 1400*time.Millisecond)
	for i := 0; i < iters; i++ {
		recs, err := generateRadiation(r.cfg, i)
		if err != nil {
			return err
		}
		it, err := replayOnce(radiationOptions(r.cfg.Seed), recs, nil, true)
		if err != nil {
			return err
		}
		r.digest(fmt.Sprintf("default/%d", i), it.digest())
		r.sample("pps", it.pps())
		r.sample("alloc_kib_per_pkt", float64(it.after.alloc-it.before.alloc)/1024/float64(it.stats.InboundPackets))
		r.sample("live_heap_mib", it.liveHeapMiB)
		r.sample("sim_mib_per_vm", simMiBPerVM(it.stats))
		r.ops(uint64(len(recs)), 0)
	}
	return nil
}

func init() {
	workloads[wReplay] = workload{
		why: "in-process replay of telescope background radiation, 1 s idle timeout: no ingest, clone/recycle churn through gateway, farm, vmm, mem and sim; where barrier and cluster epoch cost shows",
		run: func(r *run) error {
			if r.cfg.Trace {
				return traceReplay(r)
			}
			return runReplay(r)
		},
	}
}
