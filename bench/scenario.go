package main

import (
	"fmt"
	"time"

	"potemkin"
)

// scenario-outbreak runs the builtin multistage campaign (recon sweep,
// exploit wave, C2 beaconing, lateral movement: ~4k clones, ~60k egress
// attempts, 15.8 simulated seconds). Builtin p2p is not used: at its
// defaults it passes 16 GB RSS (README, findings).
const outbreakScenario = "multistage"

// outbreakOptions is the default arm's farm: scenario runs always
// execute on the shard engine, one shard unless an arm says otherwise.
// Below full scale (the smoke test) the campaign's settle period
// shrinks, which is where the epidemic does its growing.
func outbreakOptions(cfg runConfig) (potemkin.Options, error) {
	sc, err := potemkin.LoadScenario(outbreakScenario)
	if err != nil {
		return potemkin.Options{}, err
	}
	if cfg.Scale < 1 {
		short := *sc
		short.SettleMS = int64(cfg.scaled(int(sc.SettleMS), 3000))
		sc = &short
	}
	return potemkin.Options{Seed: cfg.Seed, Policy: potemkin.InternalReflect, Scenario: sc}, nil
}

// outbreak is one timed campaign run.
type outbreak struct {
	iteration
	card *potemkin.Scorecard
}

// outbreakOnce builds the farm (untimed: New compiles the campaign) and
// times RunScenario.
func outbreakOnce(opts potemkin.Options, prepare func(*potemkin.Honeyfarm), heap bool) (outbreak, error) {
	var ob outbreak
	hf, err := potemkin.New(opts)
	if err != nil {
		return ob, err
	}
	defer hf.Close()
	if prepare != nil {
		prepare(hf)
	}
	collectGarbage()
	ob.before = readProc()
	if ob.card, err = hf.RunScenario(); err != nil {
		return ob, err
	}
	ob.after = readProc()
	ob.wall = ob.after.wall.Sub(ob.before.wall)
	ob.engine = readEngine(hf)
	if ob.finalState, err = readFinalState(hf); err != nil {
		return ob, err
	}
	if ob.stats.InboundPackets == 0 {
		return ob, fmt.Errorf("scenario dispatched no packets")
	}
	if heap {
		ob.liveHeapMiB = liveHeapMiB()
	}
	return ob, nil
}

// runScenario is the untraced scenario-outbreak run.
func runScenario(r *run) error {
	began := processStart
	var opts potemkin.Options
	for i := 0; i < r.cfg.setupRepeats(); i++ {
		var err error
		if opts, err = outbreakOptions(r.cfg); err != nil {
			return err
		}
		ob, err := outbreakOnce(opts, nil, false)
		if err != nil {
			return err
		}
		r.digest("default", ob.digest())
		r.sample("setup_s", time.Since(began).Seconds())
		began = time.Now()
	}
	iters := timedIterations(r.cfg, 2*time.Second)
	for i := 0; i < iters; i++ {
		ob, err := outbreakOnce(opts, nil, i == iters-1)
		if err != nil {
			return err
		}
		r.digest("default", ob.digest())
		r.sample("pps", ob.pps())
		r.sample("alloc_kib_per_pkt", float64(ob.after.alloc-ob.before.alloc)/1024/float64(ob.stats.InboundPackets))
		r.ops(uint64(ob.card.Facts.Steps), 0)
		if i == iters-1 {
			r.set("live_heap_mib", ob.liveHeapMiB)
			r.set("sim_mib_per_vm", simMiBPerVM(ob.stats))
		}
	}
	return nil
}

func init() {
	workloads[wScenario] = workload{
		why: "worm epidemic from the multistage campaign: guest scanning, gateway outbound policy and internal reflection, telemetry forced on; almost no inbound dispatch from outside, the inverse of wire-warm",
		run: func(r *run) error {
			if r.cfg.Trace {
				return traceScenario(r)
			}
			return runScenario(r)
		},
	}
}
