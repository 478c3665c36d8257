package main

import (
	"fmt"
	"io"
	"time"

	"potemkin"
	"potemkin/internal/core"
	"potemkin/internal/telescope"
)

// Engine arms. The default arm is Options{}; the parallel arm is
// Parallel with two gateway shards; the cluster arm is a coordinator and
// one in-process worker over loopback TCP on the parallel arm's engine
// configuration. Parallel and cluster must be byte-equal to the
// same-shard sequential oracle, run once.

const armShards = 2

// parallelOptions turns an arm's base options into the parallel arm's.
func parallelOptions(o potemkin.Options) potemkin.Options {
	o.Parallel, o.GatewayShards = true, armShards
	return o
}

// engineConfig is the shard-engine configuration the facade builds for
// o (Honeyfarm.buildEngine), for the arms that drive core and cluster
// directly.
func engineConfig(o potemkin.Options, shards int, parallel bool) core.ShardEngineConfig {
	fc, gc := layerConfigs(o)
	return core.ShardEngineConfig{Shards: shards, Parallel: parallel, Seed: o.Seed, Gateway: gc, Farm: fc}
}

// armIterations is how many timed iterations each arm and each sink
// comparison gets: three, a median's minimum.
func armIterations(cfg runConfig) int {
	if cfg.Scale < 1 {
		return 1
	}
	return 3
}

// sequentialOracle switches a parallel-arm farm to single-threaded
// epochs before it runs.
func sequentialOracle(hf *potemkin.Honeyfarm) { hf.Internals().Engine.SetSequential(true) }

// checkAgainstOracle compares an arm's final state, byte for byte, to
// that of the oracle iteration.
func checkAgainstOracle(r *run, arm string, want, got finalState) {
	if r.cfg.Sabotage == "perturbed-oracle" {
		want.stats.InboundPackets++
	}
	r.check("oracle-equal/"+arm, got.equal(want),
		"%s arm differs from the sequential oracle: stats %+v, want %+v", arm, got.stats, want.stats)
}

// radiationArms runs replay-radiation's arms and sink comparisons.
func radiationArms(r *run, recs []telescope.Record) error {
	base := radiationOptions(r.cfg.Seed)
	par := parallelOptions(base)
	timed := armIterations(r.cfg)

	// The oracle: the parallel arm's engine, epochs single-threaded.
	oracle, err := replayOnce(par, recs, sequentialOracle, false)
	if err != nil {
		return err
	}

	// Parallel arm.
	for i := 0; i < timed; i++ {
		it, err := replayOnce(par, recs, nil, false)
		if err != nil {
			return err
		}
		r.digest("parallel", it.digest())
		checkAgainstOracle(r, "parallel", oracle.finalState, it.finalState)
		r.sample("pps_par", it.pps())
	}
	// Runs byte-equal to the oracle share its epoch grid.
	r.set("sim.epochs_per_sim_s", float64(oracle.engine.epochs)/oracle.stats.Now.Seconds())
	r.set("core.par_speedup", median(r.samples["pps_par"])/oracle.pps())

	// Cluster arm.
	ec := engineConfig(base, armShards, true)
	for i := 0; i < timed; i++ {
		cl, err := startCluster(ec, "bench-radiation")
		if err != nil {
			return err
		}
		t0 := time.Now()
		n, err := cl.c.Replay(&telescope.SliceSource{Recs: recs}, nil, time.Millisecond)
		if err != nil {
			cl.stop()
			return err
		}
		cl.c.RunFor(radiationTail)
		res, err := cl.c.Results()
		wall := time.Since(t0)
		epochs := cl.epochs.Load()
		if serr := cl.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return err
		}
		r.check("oracle-equal/cluster",
			n == len(recs) && res.Gateway == oracle.engine.gateway && res.Farm == oracle.engine.farm &&
				res.LiveVMs == oracle.engine.liveVMs && res.Memory == oracle.engine.memory && time.Duration(res.Now) == oracle.stats.Now,
			"cluster arm differs from the sequential oracle: gateway %+v, want %+v", res.Gateway, oracle.engine.gateway)
		r.sample("pps_cluster", float64(res.Gateway.InboundPackets)/wall.Seconds())
		r.set("cluster.epochs", float64(epochs))
	}
	r.set("cluster.vs_oracle", median(r.samples["pps_cluster"])/oracle.pps())

	// One shard, not parallel, on the shard engine against the classic
	// default arm, and the three sinks on against off, interleaved.
	one := engineConfig(base, 1, false)
	var classic, shard1 []float64
	overhead := map[string][]float64{}
	sinks := []struct {
		name string
		on   func(*potemkin.Options)
	}{
		{"metrics.on_overhead_frac", func(o *potemkin.Options) { o.Metrics = true }},
		{"trace.on_overhead_frac", func(o *potemkin.Options) { o.TraceOut = io.Discard }},
		{"eventlog.on_overhead_frac", func(o *potemkin.Options) { o.EventLog = io.Discard }},
	}
	for i := 0; i < timed; i++ {
		off, err := replayOnce(base, recs, nil, false)
		if err != nil {
			return err
		}
		classic = append(classic, off.pps())
		for _, s := range sinks {
			o := base
			s.on(&o)
			on, err := replayOnce(o, recs, nil, false)
			if err != nil {
				return err
			}
			r.check("sink-is-observation-only/"+s.name, on.stats == off.stats,
				"stats changed with the sink on: %+v, off %+v", on.stats, off.stats)
			overhead[s.name] = append(overhead[s.name], on.wall.Seconds()/off.wall.Seconds()-1)
		}
		pps, err := shardEngineOnce(one, recs)
		if err != nil {
			return err
		}
		shard1 = append(shard1, pps)
	}
	for _, s := range sinks {
		r.set(s.name, median(overhead[s.name]))
	}
	r.set("core.shard1_vs_classic", median(shard1)/median(classic))
	return nil
}

// shardEngineOnce replays recs on a bare shard engine and returns pps.
func shardEngineOnce(ec core.ShardEngineConfig, recs []telescope.Record) (float64, error) {
	eng, err := core.NewShardEngine(ec)
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	t0 := time.Now()
	n, err := eng.Replay(&telescope.SliceSource{Recs: recs}, nil, time.Millisecond)
	if err != nil {
		return 0, err
	}
	eng.RunFor(radiationTail)
	wall := time.Since(t0)
	if n != len(recs) {
		return 0, fmt.Errorf("shard engine injected %d of %d records", n, len(recs))
	}
	return float64(eng.GatewayStats().InboundPackets) / wall.Seconds(), nil
}

// outbreakArms runs scenario-outbreak's parallel arm against its oracle.
func outbreakArms(r *run, base potemkin.Options) error {
	par := parallelOptions(base)
	oracle, err := outbreakOnce(par, sequentialOracle, false)
	if err != nil {
		return err
	}
	for i := 0; i < armIterations(r.cfg); i++ {
		ob, err := outbreakOnce(par, nil, false)
		if err != nil {
			return err
		}
		r.digest("parallel", ob.digest())
		checkAgainstOracle(r, "parallel", oracle.finalState, ob.finalState)
		r.sample("pps_par", ob.pps())
	}
	r.set("sim.epochs_per_sim_s", float64(oracle.engine.epochs)/oracle.stats.Now.Seconds())
	r.set("core.par_speedup", median(r.samples["pps_par"])/oracle.pps())
	return nil
}
