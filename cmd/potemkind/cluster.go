package main

// Cluster mode: -coordinator runs the epoch barrier and feed driver;
// -worker hosts a subset of the shard domains. Both roles build their
// engine configuration from the same Options a single-process run
// would (SPMD) and verify agreement during the handshake, so a worker
// started with a different seed or policy is rejected instead of
// silently diverging. The merged results are byte-identical to a
// single-process run of the same scenario.

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"potemkin"
	"potemkin/internal/cluster"
	"potemkin/internal/core"
	"potemkin/internal/metrics"
	"potemkin/internal/sim"
	"potemkin/internal/telescope"
)

// configTag canonically renders what both cluster roles must agree on;
// a worker whose tag differs from the coordinator's fails the handshake.
func configTag(opts potemkin.Options, ec core.ShardEngineConfig) string {
	t := fmt.Sprintf("space=%s servers=%d shards=%d policy=%s idle=%s guest=%s seed=%d",
		ec.Gateway.Space, ec.Farm.Servers, ec.Shards, opts.Policy, ec.Gateway.IdleTimeout,
		ec.Farm.Profile.Name, ec.Seed)
	if opts.Scenario != nil {
		// The content hash catches roles launched with divergent scenario
		// files that happen to share a name.
		t += fmt.Sprintf(" scenario=%s#%016x", opts.Scenario.Name, opts.Scenario.Hash())
	}
	return t
}

// coordinator is a farm whose shards run on worker processes.
type coordinator struct {
	c    *cluster.Coordinator
	opts potemkin.Options
	res  *cluster.Results
}

// replay feeds the workers, then fetches and merges their results and
// writes the event log and trace they collected — even when the run
// degraded: partial results are the whole point of the clean-degrade
// path.
func (co *coordinator) replay(src telescope.Source, epilogue time.Duration, halt func() bool) (int, error) {
	n, err := co.c.Replay(src, halt, epilogue)
	if err != nil {
		err = fmt.Errorf("replay: %w", err)
	}
	res, rerr := co.c.Results()
	if rerr != nil && err == nil {
		err = fmt.Errorf("results: %w", rerr)
	}
	co.res = res
	for _, out := range []struct {
		w io.Writer
		b []byte
	}{{co.opts.EventLog, res.Events}, {co.opts.TraceOut, res.Trace}} {
		if out.w == nil {
			continue
		}
		if _, werr := out.w.Write(out.b); werr != nil && err == nil {
			err = werr
		}
	}
	for _, ev := range co.c.RecoveryEvents() {
		logf("recovery: %s", ev)
	}
	return n, err
}

func (co *coordinator) totals() (time.Duration, core.Totals) {
	return time.Duration(co.res.Now), co.res.Totals
}

func (co *coordinator) snapshot() ([]byte, error) { return marshalSnapshot(co.totals()) }

// runCoordinator drives one cluster run end to end and returns the
// process exit code. A SIGINT/SIGTERM halts the feed at the next epoch
// boundary and still merges and flushes everything collected so far —
// same graceful-flush contract as single-process mode.
func runCoordinator(f *flags, opts potemkin.Options, halt func() bool) int {
	ec, err := opts.EngineConfig()
	if err != nil {
		logf("%v", err)
		return 1
	}
	ec.EventLog, ec.TraceOut, ec.EpochLog = opts.EventLog, opts.TraceOut, opts.EpochLog
	if opts.Metrics {
		// The coordinator publishes the workers' totals into it, as the
		// engine publishes its domains'. A scenario's scorecard needs
		// none of it: it is computed from the shard Totals the workers
		// ship with their results.
		ec.Metrics = metrics.NewRegistry()
	}
	tag := configTag(opts, ec)
	c, err := cluster.New(cluster.Config{
		Engine:            ec,
		ConfigTag:         tag,
		ListenAddr:        f.coordinator,
		Workers:           f.workers,
		HeartbeatInterval: f.heartbeat,
		HeartbeatTimeout:  f.hbTimeout,
		RecoveryWait:      f.recoveryWait,
		RecoveryLog:       os.Stderr,
		Logf:              logf,
	})
	if err != nil {
		logf("%v", err)
		return 1
	}
	defer c.Close()
	if err := c.Start(); err != nil {
		logf("%v", err)
		return 1
	}
	fmt.Printf("coordinator on %s: %d shards across %d workers, scenario %q\n",
		c.Addr(), ec.Shards, f.workers, tag)
	if f.debugAddr != "" {
		// /cluster reads only atomics published by the driver and read
		// loops, so serving it from HTTP goroutines mid-run is safe.
		http.HandleFunc("/cluster", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Write(c.HealthJSON())
		})
		serveRun(f.debugAddr, c.MetricsText, "/snapshot, /metrics, /cluster, /debug/vars, /debug/pprof")
	}
	if err := c.WaitReady(5 * time.Minute); err != nil {
		logf("%v", err)
		return 1
	}
	fmt.Printf("workers ready; starting feed\n")
	fd, err := openFeed(f, opts, ec.Gateway.Space)
	if err != nil {
		logf("%v", err)
		return 1
	}
	c.SetProgress(f.interval, func(now sim.Time, t core.Totals) {
		printProgress(potemkin.StatsOf(time.Duration(now), t))
		publishSnapshot(marshalSnapshot(time.Duration(now), t))
	})
	co := &coordinator{c: c, opts: opts}
	injected, card, err := fd.run(co, opts.Policy, halt)
	return conclude(co, f, injected, card, nil, err, halt())
}

// runWorker serves shards until the coordinator shuts the run down, and
// returns the process exit code. The first SIGINT/SIGTERM is deferred
// to the coordinator (which owns the run's lifecycle and the flush of
// everything this worker has buffered); a second one forces exit.
func runWorker(f *flags, opts potemkin.Options) int {
	ec, err := opts.EngineConfig()
	if err != nil {
		logf("%v", err)
		return 1
	}
	name := f.name
	if name == "" {
		host, _ := os.Hostname()
		name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	if f.debugAddr != "" {
		// The worker's farm state is read through the coordinator; its
		// own endpoint profiles the process.
		pprof := http.NewServeMux()
		pprof.Handle("/debug/pprof/", http.DefaultServeMux)
		serveDebug(f.debugAddr, pprof, "/debug/pprof")
	}
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		logf("worker %s: interrupt deferred — the coordinator drives shutdown and flushes buffered output; ^C again to force", name)
		<-sigs
		os.Exit(1)
	}()
	err = cluster.RunWorker(cluster.WorkerConfig{
		Addr:              f.worker,
		Engine:            ec,
		ConfigTag:         configTag(opts, ec),
		Name:              name,
		HeartbeatInterval: f.heartbeat,
		// Die as abruptly as a SIGKILL: the whole point of the injected
		// fault is exercising the coordinator's crash recovery.
		OnKill: func(worker int) {
			logf("worker %s: killed by injected fault (worker slot %d)", name, worker)
			os.Exit(137)
		},
		Logf: logf,
	})
	if err != nil {
		logf("worker %s: %v", name, err)
		return 1
	}
	logf("worker %s: clean shutdown", name)
	return 0
}
