package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"potemkin"
	"potemkin/internal/guest"
)

// flags is potemkind's command line.
type flags struct {
	space, pcapF, listen               string
	listenFor                          time.Duration
	listenShards, queueLen             int
	plainGRE                           bool
	speedup                            float64
	wirePcap                           string
	duration                           time.Duration
	rate                               float64
	servers, shards                    int
	parallel                           bool
	policy                             string
	idle                               time.Duration
	guest, profile                     string
	seed                               uint64
	interval                           time.Duration
	eventLog, capture                  string
	checkpoints                        string
	jsonOut                            bool
	traceOut, debugAddr                string
	epochLog, snapshotOut              string
	scenario, scorecardOut             string
	coordinator, worker                string
	workers                            int
	name                               string
	heartbeat, hbTimeout, recoveryWait time.Duration
}

// defineFlags registers potemkind's flags on fs.
func defineFlags(fs *flag.FlagSet) *flags {
	f := new(flags)
	fs.StringVar(&f.space, "space", "10.5.0.0/16", "monitored address space (CIDR)")
	fs.StringVar(&f.pcapF, "pcap", "", "pcap savefile to replay (default: synthesize)")
	fs.StringVar(&f.listen, "listen", "", "serve live GRE-over-UDP ingest on this UDP address (e.g. 127.0.0.1:4754)")
	fs.DurationVar(&f.listenFor, "listen-for", 0, "stop the listener after this much wall time (0: until interrupted)")
	fs.IntVar(&f.listenShards, "listen-shards", 1, "ingest listener shards (1 keeps wire replay deterministic)")
	fs.IntVar(&f.queueLen, "queue", 4096, "per-shard ingest queue length (frames)")
	fs.BoolVar(&f.plainGRE, "plain-gre", false, "expect plain GRE framing on -listen (no timestamp prefix; arrival clock maps to virtual time)")
	fs.Float64Var(&f.speedup, "speedup", 1, "wall-to-virtual time scale for plain-framing arrivals")
	fs.StringVar(&f.wirePcap, "wire-pcap", "", "capture every live wire injection to this pcap savefile (requires -listen; replay it with -pcap)")
	fs.DurationVar(&f.duration, "duration", 2*time.Minute, "synthesized feed duration")
	fs.Float64Var(&f.rate, "rate", 200, "synthesized feed rate (packets/sec)")
	fs.IntVar(&f.servers, "servers", 4, "physical servers")
	fs.IntVar(&f.shards, "shards", 1, "gateway instances partitioning the monitored space")
	fs.BoolVar(&f.parallel, "parallel", false, "run gateway shards on parallel epochs (requires -shards >= 2)")
	fs.StringVar(&f.policy, "policy", "internal-reflect", "containment policy")
	fs.DurationVar(&f.idle, "idle", 60*time.Second, "VM idle-recycling timeout (0 disables)")
	fs.StringVar(&f.guest, "guest", "winxp", "guest personality")
	fs.StringVar(&f.profile, "profile", "", "load a custom guest personality from a JSON profile file")
	fs.Uint64Var(&f.seed, "seed", 1, "simulation seed")
	fs.DurationVar(&f.interval, "interval", 10*time.Second, "progress interval (simulated)")
	fs.StringVar(&f.eventLog, "eventlog", "", "write the gateway's forensic event log (JSONL) to this file")
	fs.StringVar(&f.capture, "capture", "", "record all gateway traffic into pcap savefiles (in, tovm, out) under this directory (shard-<i>/ above one shard; a cluster worker writes its own shards')")
	fs.StringVar(&f.checkpoints, "checkpoints", "", "save delta checkpoints of detected VMs into this directory (a cluster worker saves its own shards')")
	fs.BoolVar(&f.jsonOut, "json", false, "emit the final stats as JSON on stdout")
	fs.StringVar(&f.traceOut, "trace-out", "", "write the binding-lifecycle span trace (JSONL) to this file (see inspect trace; inspect trace -chrome renders it for Perfetto)")
	fs.StringVar(&f.debugAddr, "debug-addr", "", "serve /snapshot, /metrics, /debug/vars (expvar) and /debug/pprof on this address while running (a worker serves /debug/pprof only)")
	fs.StringVar(&f.epochLog, "epoch-log", "", "write the engine's JSONL epoch timeline to this file (see inspect epochs)")
	fs.StringVar(&f.snapshotOut, "snapshot-out", "", "write the final JSON snapshot to this file, the same bytes in every mode (see inspect snapshot)")
	fs.StringVar(&f.scenario, "scenario", "", "run a deterministic attacker campaign: builtin family name or scenario JSON file")
	fs.StringVar(&f.scorecardOut, "scorecard-out", "", "write the campaign's effectiveness scorecard (JSON) to this file (requires -scenario; see inspect scorecard)")

	fs.StringVar(&f.coordinator, "coordinator", "", "run as cluster coordinator, serving workers on this TCP address")
	fs.StringVar(&f.worker, "worker", "", "run as cluster worker, dialing the coordinator at this TCP address")
	fs.IntVar(&f.workers, "workers", 2, "worker processes the coordinator distributes shards over")
	fs.StringVar(&f.name, "name", "", "worker name in logs and recovery events (default host:pid)")
	fs.DurationVar(&f.heartbeat, "heartbeat", time.Second, "cluster heartbeat interval")
	fs.DurationVar(&f.hbTimeout, "heartbeat-timeout", 5*time.Second, "declare a cluster peer dead after this much silence")
	fs.DurationVar(&f.recoveryWait, "recovery-wait", 30*time.Second, "how long the coordinator waits for a replacement worker before degrading")
	return f
}

var (
	policies = map[string]potemkin.Policy{
		"open": potemkin.Open, "drop-all": potemkin.DropAll,
		"reflect-source": potemkin.ReflectSource, "internal-reflect": potemkin.InternalReflect,
	}
	guests = map[string]potemkin.GuestKind{
		"winxp": potemkin.GuestWindowsXP, "sqlserver": potemkin.GuestSQLServer,
		"linux": potemkin.GuestLinuxServer,
	}
)

// options turns the parsed flags in fs into the run's Options, and
// reports every problem with them, one per line, instead of stopping at
// the first: a misconfigured invocation should not take N runs to
// discover N mistakes. Every mode, cluster roles included, runs on the
// Options it returns.
func (f *flags) options(fs *flag.FlagSet) (potemkin.Options, []string) {
	set := map[string]bool{}
	fs.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
	var problems []string
	bad := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	coordinator, worker := f.coordinator != "", f.worker != ""
	if f.pcapF != "" && f.listen != "" {
		bad("-pcap and -listen are mutually exclusive")
	}
	if f.wirePcap != "" && f.listen == "" {
		bad("-wire-pcap requires -listen (it captures the live wire feed)")
	}
	if coordinator && worker {
		bad("-coordinator and -worker are mutually exclusive")
	}
	if (coordinator || worker) && f.listen != "" {
		bad("cluster mode does not support -listen (wire arrivals defeat conservative lookahead)")
	}
	if coordinator && f.shards < 2 {
		bad("-coordinator requires -shards >= 2 (got %d)", f.shards)
	}
	if coordinator && f.workers < 1 {
		bad("-workers must be >= 1 (got %d)", f.workers)
	}
	if worker {
		for _, name := range []string{"pcap", "json", "eventlog", "trace-out", "snapshot-out", "epoch-log", "scorecard-out"} {
			if set[name] {
				bad("-%s is a coordinator flag; the worker ships its output over the cluster protocol", name)
			}
		}
	}
	if coordinator {
		for _, name := range []string{"capture", "checkpoints"} {
			if set[name] {
				bad("-%s is a worker flag; each worker writes its own shards' files", name)
			}
		}
	}
	if f.interval <= 0 {
		bad("-interval must be positive (got %v)", f.interval)
	}
	if f.scorecardOut != "" && f.scenario == "" {
		bad("-scorecard-out requires -scenario (the scorecard scores a campaign run)")
	}
	if f.scenario != "" {
		for _, name := range []string{"pcap", "listen", "profile", "guest", "rate", "duration"} {
			if set[name] {
				bad("-%s conflicts with -scenario (the scenario defines the feed and the guest)", name)
			}
		}
	}

	opts := potemkin.Options{
		Seed:           f.seed,
		MonitoredSpace: f.space,
		Servers:        f.servers,
		GatewayShards:  f.shards,
		Parallel:       f.parallel,
		IdleTimeout:    f.idle,
		CaptureDir:     f.capture,
		CheckpointDir:  f.checkpoints,
		// The live /metrics scrape is the registry's one consumer here.
		Metrics: f.debugAddr != "",
	}
	if f.idle == 0 {
		opts.IdleTimeout = -1
	}
	var ok bool
	if opts.Policy, ok = policies[f.policy]; !ok {
		bad("unknown policy %q (want open, drop-all, reflect-source, or internal-reflect)", f.policy)
	}
	if opts.Guest, ok = guests[f.guest]; !ok {
		bad("unknown guest %q (want winxp, sqlserver, or linux)", f.guest)
	}
	if f.listen != "" && !coordinator && !worker {
		opts.Wire = &potemkin.WireOptions{
			Addr:      f.listen,
			Shards:    f.listenShards,
			QueueLen:  f.queueLen,
			PlainGRE:  f.plainGRE,
			Speedup:   f.speedup,
			ListenFor: f.listenFor,
			Capture:   f.wirePcap,
		}
	}
	if f.scenario != "" {
		if c, err := potemkin.LoadScenario(f.scenario); err != nil {
			bad("%v", err)
		} else {
			opts.Scenario = c
		}
	} else if f.profile != "" {
		if p, err := loadProfile(f.profile); err != nil {
			bad("%v", err)
		} else {
			opts.GuestProfile = p
		}
	}
	if err := opts.Validate(); err != nil {
		for _, line := range strings.Split(err.Error(), "\n") {
			bad("%s", line)
		}
	}
	return opts, problems
}

// loadProfile reads a guest personality from a JSON profile file.
func loadProfile(path string) (*guest.Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p, err := guest.LoadProfile(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return p, nil
}
