// Package potemkin is a simulated reproduction of the Potemkin virtual
// honeyfarm (Vrable et al., SOSP 2005): a gateway that binds IP
// addresses of a large monitored network to virtual machines on demand,
// flash-clones those VMs from a reference snapshot in well under a
// second, shares their memory copy-on-write ("delta virtualization"),
// contains everything they emit, and recycles them when idle — so a
// handful of physical servers present tens of thousands of
// high-fidelity honeypots.
//
// The package is the library facade: construct a Honeyfarm from Options,
// drive it with traffic (single probes, exploits, or whole telescope
// traces), advance simulated time, and read the aggregate statistics.
// Everything runs on a deterministic discrete-event simulation — no real
// network or hypervisor is touched, and the same seed always produces
// the same run. With Options.Parallel the shards execute on one
// goroutine each under conservative epoch barriers — same bytes, more
// cores.
//
// Minimal use:
//
//	hf, err := potemkin.New(potemkin.Options{})
//	if err != nil { ... }
//	hf.InjectProbe("203.0.113.9", "10.5.1.2", 445)
//	hf.RunFor(2 * time.Second)
//	fmt.Println(hf.Stats())
package potemkin

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"potemkin/internal/core"
	"potemkin/internal/farm"
	"potemkin/internal/gateway"
	"potemkin/internal/guest"
	"potemkin/internal/metrics"
	"potemkin/internal/netsim"
	"potemkin/internal/scenario"
	"potemkin/internal/sim"
	"potemkin/internal/telescope"
)

// Policy selects the containment mode for VM-originated traffic.
type Policy int

// Containment policies, from most permissive to most capable.
const (
	// Open forwards all outbound traffic (dangerous; for measurement
	// baselines only).
	Open Policy = iota
	// DropAll drops all outbound traffic leaving the honeyfarm.
	DropAll
	// ReflectSource additionally allows replies to the remote host that
	// elicited them.
	ReflectSource
	// InternalReflect additionally redirects other outbound connections
	// to fresh honeyfarm VMs, capturing multi-stage malware without
	// leaking a byte. This is the paper's headline policy.
	InternalReflect
)

func (p Policy) String() string { return gateway.Policy(p).String() }

// GuestKind selects a stock guest personality.
type GuestKind int

// Stock guests.
const (
	// GuestWindowsXP is vulnerable on 445/tcp and scans after infection.
	GuestWindowsXP GuestKind = iota
	// GuestSQLServer is vulnerable on 1434/udp (Slammer-style).
	GuestSQLServer
	// GuestLinuxServer has no vulnerability (control population).
	GuestLinuxServer
	// GuestMultiStage is GuestWindowsXP whose malware resolves
	// "update.evil.example" and fetches a second stage after compromise
	// — the workload that exercises the safe resolver and internal
	// reflection together.
	GuestMultiStage
)

// Hooks bundles the optional observation callbacks, so future hooks
// extend this struct instead of widening Options. All fields are
// optional. In Parallel mode the hooks are invoked from shard
// goroutines: they must be safe for concurrent use, and their
// interleaving across shards is not deterministic (the simulation
// itself remains exactly reproducible).
type Hooks struct {
	// OnDetected fires when the gateway's scan detector flags a VM.
	OnDetected func(addr string, distinctTargets int)
	// OnInfected fires when a guest is compromised.
	OnInfected func(addr string, generation int)
	// OnEgress observes every packet the policy allows to leave.
	OnEgress func(pkt string)
}

// Options configures a Honeyfarm. The zero value of every field has a
// sensible default.
type Options struct {
	// Seed makes the whole simulation deterministic. Default 1.
	Seed uint64

	// MonitoredSpace is the CIDR block the honeyfarm answers for.
	// Default "10.5.0.0/16".
	MonitoredSpace string

	// Servers is the number of physical servers. Default 4.
	Servers int
	// ServerMemory is per-server RAM in bytes. Default 16 GiB.
	ServerMemory uint64
	// GatewayShards partitions the monitored space across this many
	// independent gateway instances (the paper's answer when one
	// gateway box saturates). Each shard is a simulation domain of its
	// own — gateway, event queue, safe resolver and an even slice of
	// the servers, so at least one server per shard is required — and
	// the domains advance together under conservative epoch barriers
	// (see DESIGN.md "Parallel execution"). Traffic between shards pays
	// the farm's 1 ms internal latency, which is the barrier's
	// lookahead budget. Default 1: one domain, no barrier traffic.
	GatewayShards int

	// Parallel runs the shard domains' epochs on one goroutine each
	// instead of in shard order on the caller's. It changes wall time
	// only: the run is byte-identical to the same options without it.
	// Requires GatewayShards >= 2. Live wire ingest (Options.Wire)
	// works in either mode: arrivals are quantized onto the epoch grid,
	// and a run with Wire.Capture set is byte-for-byte replayable from
	// its own pcap.
	Parallel bool

	// Policy is the containment mode. The zero value is Open, which
	// forwards everything a guest sends; set InternalReflect for the
	// paper's containment.
	Policy Policy
	// IdleTimeout recycles VMs idle this long; 0 keeps the default of
	// 60 s; negative disables recycling.
	IdleTimeout time.Duration

	// Guest picks the honeypot personality. Default GuestWindowsXP.
	Guest GuestKind
	// GuestProfile, when non-nil, overrides Guest with a custom
	// personality (see guest.LoadProfile for the JSON form; the
	// potemkind -profile flag loads one). Must Validate.
	GuestProfile *guest.Profile

	// Wire, when non-nil, declares live GRE-over-UDP wire ingest:
	// StartWire opens the listener, Serve drives the farm from the
	// feed — Parallel included. Mutually exclusive with Scenario (the
	// scenario defines the feed). See WireOptions.
	Wire *WireOptions

	// Scenario, when non-nil, arms a deterministic attacker campaign:
	// the scenario derives the guest personality (Guest and
	// GuestProfile must be unset) and RunScenario replays its compiled
	// packet plan and scores the run from the farm's own counters, so
	// telemetry stays off unless Metrics asks for it. Load one with
	// LoadScenario (builtin family name or JSON file path).
	Scenario *Scenario

	// EventLog, when non-nil, receives the gateway's forensic event log
	// as JSON lines (bound/active/recycled/detected/reflected/…). With
	// one gateway shard the log is written through at every epoch
	// boundary (1 ms of simulated time, wider across quiet stretches)
	// and before each Honeyfarm call returns. With several it is
	// buffered per shard and written in shard order on Close, so the
	// bytes stay a pure function of the seed.
	EventLog io.Writer

	// TraceOut, when non-nil, receives the binding-lifecycle span trace
	// as JSON lines (see internal/trace): one trace per binding, spans
	// for bind → spawn → placement → clone → active → recycle, with the
	// forensic events folded on. Deterministic: the same seed writes the
	// same bytes. Call Close to flush spans still open at shutdown.
	// Written through or buffered until Close exactly as EventLog is.
	// Trace and span IDs are unique across shards, and
	// `inspect trace -chrome` renders the file for Perfetto.
	TraceOut io.Writer

	// Metrics enables the live telemetry registry: named atomic
	// counters/gauges/histograms (gateway_*, farm_*, vmm_*, guest_*,
	// ingest_*, epoch_*), readable at any moment from any goroutine via
	// MetricsText() without touching simulation state. The
	// farm's own counters are published into it at epoch barriers:
	// every second of simulated time mid-run, and exactly whenever
	// Replay, RunFor, an Inject call, Serve or RunScenario returns.
	// Telemetry is observability-only — a same-seed run produces
	// byte-identical output with it on or off — and when off (the
	// default) none of it is built or run.
	Metrics bool

	// EpochLog, when non-nil, receives the engine's JSONL epoch
	// timeline — one line per epoch barrier with per-shard advance and
	// barrier-wait wall times plus exchange cost — for
	// `inspect epochs`, with or without Parallel. Wall-clock figures
	// are observability-only and never feed back into the simulation.
	EpochLog io.Writer

	// CheckpointDir, when set, saves the dirtied pages of every VM the
	// scan detector flags to <dir>/<addr>-<t>.ckpt, in every mode; a
	// cluster worker writes its own shards' files.
	CheckpointDir string

	// CaptureDir, when set, records every packet crossing the gateway,
	// payloads included, as the pcap savefiles in.pcap, tovm.pcap and
	// out.pcap (Close flushes them; potemkind -pcap replays them), under
	// shard-0, shard-1, … above one gateway shard, in every mode; a
	// cluster worker writes its own shards' files.
	CaptureDir string

	// Hooks bundles the observation callbacks.
	Hooks *Hooks
}

// withDefaults returns a copy of o with every zero-valued knob replaced
// by its documented default.
func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.MonitoredSpace == "" {
		o.MonitoredSpace = "10.5.0.0/16"
	}
	if o.Servers == 0 {
		o.Servers = 4
	}
	if o.ServerMemory == 0 {
		o.ServerMemory = 16 << 30
	}
	if o.GatewayShards == 0 {
		o.GatewayShards = 1
	}
	return o
}

// Validate reports every configuration problem at once — one per line —
// instead of failing on the first, so a misconfigured deployment is
// fixed in one round trip. The zero value and any combination of
// defaulted fields validate clean. New calls it; call it directly to
// check a configuration without building anything.
func (o Options) Validate() error {
	o = o.withDefaults()
	var errs []error
	add := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("potemkin: "+format, args...))
	}
	if o.Servers < 0 {
		add("negative server count")
	}
	if _, err := netsim.ParsePrefix(o.MonitoredSpace); err != nil {
		add("invalid MonitoredSpace %q: %v", o.MonitoredSpace, err)
	}
	if o.GatewayShards < 0 {
		add("negative gateway shard count")
	}
	if o.GuestProfile != nil {
		if err := o.GuestProfile.Validate(); err != nil {
			add("invalid guest profile: %v", err)
		}
	}
	if o.Scenario != nil {
		if err := o.Scenario.Validate(); err != nil {
			errs = append(errs, err)
		}
		if o.GuestProfile != nil {
			add("Scenario and GuestProfile are mutually exclusive (the scenario derives the guest)")
		}
		if o.Guest != GuestWindowsXP {
			add("Scenario and Guest are mutually exclusive (the scenario derives the guest)")
		}
	}
	if o.Servers > 0 && o.GatewayShards > 1 && o.Servers < o.GatewayShards {
		add("GatewayShards needs at least one server per shard (%d servers, %d shards)",
			o.Servers, o.GatewayShards)
	}
	if o.Parallel && o.GatewayShards < 2 {
		add("Parallel requires GatewayShards >= 2 (got %d)", o.GatewayShards)
	}
	if w := o.Wire; w != nil {
		if w.Addr == "" {
			add("Wire.Addr is required (the UDP listen address)")
		}
		if w.Shards < 0 {
			add("negative Wire.Shards")
		}
		if w.QueueLen < 0 {
			add("negative Wire.QueueLen")
		}
		if w.Speedup < 0 {
			add("negative Wire.Speedup")
		}
		if w.Speedup != 0 && w.Speedup != 1 && !w.PlainGRE {
			add("Wire.Speedup applies only to plain framing (set Wire.PlainGRE); timestamped frames carry exact virtual time")
		}
		if w.ListenFor < 0 {
			add("negative Wire.ListenFor")
		}
		if o.Scenario != nil {
			add("Wire and Scenario are mutually exclusive (the scenario defines the feed)")
		}
	}
	return errors.Join(errs...)
}

// guestProfile picks the personality for the configured guest kind.
func (o Options) guestProfile() *guest.Profile {
	switch {
	case o.GuestProfile != nil:
		return o.GuestProfile
	case o.Guest == GuestSQLServer:
		return guest.SQLServer()
	case o.Guest == GuestLinuxServer:
		return guest.LinuxServer()
	case o.Guest == GuestMultiStage:
		return guest.MultiStageDNS("update.evil.example")
	default:
		return guest.WindowsXP()
	}
}

// Stats is the aggregate honeyfarm state.
type Stats struct {
	Now               time.Duration // simulated time elapsed
	LiveVMs           int
	PeakVMs           int // sum of per-shard peaks: above one shard, an upper bound on the farm-wide peak
	InfectedVMs       int
	BindingsCreated   uint64
	BindingsRecycled  uint64
	InboundPackets    uint64
	DeliveredToVM     uint64
	OutboundDropped   uint64
	OutboundToSource  uint64
	OutboundReflected uint64
	DNSProxied        uint64
	SpawnFailures     uint64
	DetectedInfected  uint64
	ScanFiltered      uint64
	MemoryInUse       uint64 // modeled bytes across servers
}

// String renders a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("t=%v vms=%d (peak %d, infected %d) bindings=%d/%d in=%d out[drop=%d src=%d refl=%d] mem=%dMiB",
		s.Now, s.LiveVMs, s.PeakVMs, s.InfectedVMs,
		s.BindingsCreated, s.BindingsRecycled, s.InboundPackets,
		s.OutboundDropped, s.OutboundToSource, s.OutboundReflected,
		s.MemoryInUse>>20)
}

// Honeyfarm is a running simulated honeyfarm.
type Honeyfarm struct {
	opts    Options
	profile *guest.Profile
	// plan is the compiled attacker campaign when Options.Scenario is
	// set; RunScenario replays and scores it.
	plan *scenario.Plan

	// eng runs the farm: one simulation domain per gateway shard.
	eng *core.ShardEngine

	// metrics is the live telemetry registry (nil unless Options.Metrics).
	metrics *metrics.Registry
	// wire is the server handed out by StartWire (Options.Wire mode),
	// the ingest accounting source for Snapshot.
	wire *WireServer
}

// EngineConfig translates o into the shard engine's configuration — one
// domain per gateway shard, with the policy, idle recycling, guest,
// file directories, and a scenario's target picker — after validating
// it. New adds sinks and hooks; potemkind's cluster roles run on it.
func (o Options) EngineConfig() (core.ShardEngineConfig, error) {
	ec, _, err := o.engineConfig()
	return ec, err
}

// engineConfig is EngineConfig plus the compiled scenario plan, if any.
func (o Options) engineConfig() (core.ShardEngineConfig, *scenario.Plan, error) {
	o = o.withDefaults()
	if err := o.Validate(); err != nil {
		return core.ShardEngineConfig{}, nil, err
	}
	space, _ := netsim.ParsePrefix(o.MonitoredSpace)

	fc := farm.DefaultConfig()
	fc.Servers = o.Servers
	fc.HostConfig.MemoryBytes = o.ServerMemory
	var plan *scenario.Plan
	if o.Scenario == nil {
		fc.Profile = o.guestProfile()
	} else {
		var err error
		if plan, err = scenario.Compile(o.Scenario, o.Seed, space); err != nil {
			return core.ShardEngineConfig{}, nil, err
		}
		fc.Profile = plan.Profile
		fc.PickTargetFor = plan.PickTargetFor()
		if o.GatewayShards == 1 {
			// A one-shard domain names its hosts plainly, but PR 9's
			// committed scorecards and bench/seams.go's hand-wired
			// scenario pipeline both hard-code the "-s0" name the
			// engine used to give them, and the name seeds the host's
			// RNG stream. Remove this line when bench/ is next
			// re-baselined and the scorecards are regenerated.
			fc.HostConfig.Name += "-s0"
		}
	}

	gc := gateway.DefaultConfig()
	gc.Space = space
	gc.Policy = gateway.Policy(o.Policy)
	switch {
	case o.IdleTimeout < 0:
		gc.IdleTimeout = 0
	case o.IdleTimeout == 0:
		gc.IdleTimeout = 60 * time.Second
	default:
		gc.IdleTimeout = o.IdleTimeout
	}

	// One domain (kernel + gateway + farm slice + resolver) per gateway
	// shard, epochs synchronized by core.ShardEngine: on one goroutine
	// each with Parallel, in shard order on the caller's without — same
	// bytes either way.
	return core.ShardEngineConfig{
		Shards:        o.GatewayShards,
		Parallel:      o.Parallel,
		Seed:          o.Seed,
		Gateway:       gc,
		Farm:          fc,
		CaptureDir:    o.CaptureDir,
		CheckpointDir: o.CheckpointDir,
	}, plan, nil
}

// New constructs a honeyfarm from opts.
func New(opts Options) (*Honeyfarm, error) {
	ec, plan, err := opts.engineConfig()
	if err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	hf := &Honeyfarm{opts: opts, profile: ec.Farm.Profile, plan: plan}
	if opts.Metrics {
		hf.metrics = metrics.NewRegistry()
	}
	ec.EventLog = opts.EventLog
	ec.TraceOut = opts.TraceOut
	ec.Metrics = hf.metrics
	ec.EpochLog = opts.EpochLog
	var hooks Hooks
	if opts.Hooks != nil {
		hooks = *opts.Hooks
	}
	if hooks.OnInfected != nil {
		cb := hooks.OnInfected
		ec.OnInfected = func(_ sim.Time, in *guest.Instance) {
			cb(in.IP.String(), in.Generation)
		}
	}
	if hooks.OnEgress != nil {
		cb := hooks.OnEgress
		ec.OnEgress = func(_ sim.Time, p *netsim.Packet) { cb(p.String()) }
	}
	if hooks.OnDetected != nil {
		cb := hooks.OnDetected
		ec.OnDetected = func(_ sim.Time, a netsim.Addr, n int) { cb(a.String(), n) }
	}
	eng, err := core.NewShardEngine(ec)
	if err != nil {
		return nil, err
	}
	hf.eng = eng
	return hf, nil
}

// MustNew is New that panics on error (examples, tests).
func MustNew(opts Options) *Honeyfarm {
	hf, err := New(opts)
	if err != nil {
		panic(err)
	}
	return hf
}

// RunFor advances the simulation by d.
func (hf *Honeyfarm) RunFor(d time.Duration) { hf.eng.RunFor(d) }

// InjectProbe delivers a TCP SYN from src to dst:port, as a scanner on
// the real Internet would. Returns an error for unparseable addresses
// or a destination outside the monitored space.
func (hf *Honeyfarm) InjectProbe(src, dst string, port uint16) error {
	s, d, err := hf.parsePair(src, dst)
	if err != nil {
		return err
	}
	hf.eng.Inject(netsim.TCPSyn(s, d, 40000, port, 1))
	return nil
}

// InjectExploit delivers the exploit payload for the configured guest
// personality to dst (compromising it if the service is vulnerable).
func (hf *Honeyfarm) InjectExploit(src, dst string) error {
	s, d, err := hf.parsePair(src, dst)
	if err != nil {
		return err
	}
	prof := hf.profile
	payload := prof.ExploitPayload(0)
	if payload == nil {
		return fmt.Errorf("potemkin: guest %q has no vulnerability", prof.Name)
	}
	var pkt *netsim.Packet
	if prof.ScanProto == netsim.ProtoUDP {
		pkt = netsim.UDPDatagram(s, d, 40000, prof.ScanDstPort, payload)
	} else {
		pkt = netsim.TCPSyn(s, d, 40000, prof.ScanDstPort, 1)
		pkt.Flags |= netsim.FlagPSH
		pkt.Payload = payload
	}
	hf.eng.Inject(pkt)
	return nil
}

func (hf *Honeyfarm) parsePair(src, dst string) (netsim.Addr, netsim.Addr, error) {
	s, err := netsim.ParseAddr(src)
	if err != nil {
		return 0, 0, err
	}
	d, err := netsim.ParseAddr(dst)
	if err != nil {
		return 0, 0, err
	}
	if space := hf.eng.Space(); !space.Contains(d) {
		return 0, 0, fmt.Errorf("potemkin: %s outside monitored space %s", dst, space)
	}
	return s, d, nil
}

// GenerateTrace synthesizes background-radiation traffic for the
// honeyfarm's monitored space.
func (hf *Honeyfarm) GenerateTrace(dur time.Duration, pps float64) ([]TraceRecord, error) {
	cfg := telescope.DefaultGenConfig()
	cfg.Space = hf.eng.Space()
	cfg.Duration = dur
	cfg.Rate = pps
	cfg.Seed = hf.opts.Seed
	return telescope.Generate(cfg)
}

// Stats returns the aggregate state.
func (hf *Honeyfarm) Stats() Stats { return StatsOf(hf.Totals()) }

// Totals returns the simulated time elapsed and the shard domains'
// summed counters, the pair a cluster run's results carry as Now and
// Totals.
func (hf *Honeyfarm) Totals() (time.Duration, core.Totals) {
	return time.Duration(hf.eng.Now()), hf.eng.Totals()
}

// StatsOf shapes the shard domains' summed counters at simulated time
// now as Stats: Honeyfarm.Stats, the progress observer (WithProgress)
// and potemkind's cluster coordinator report through it, so their
// output compares byte for byte.
func StatsOf(now time.Duration, t core.Totals) Stats {
	gs, fs := &t.Gateway, &t.Farm
	return Stats{
		Now:               now,
		LiveVMs:           t.LiveVMs,
		PeakVMs:           fs.PeakLiveVMs,
		InfectedVMs:       t.InfectedVMs,
		BindingsCreated:   gs.BindingsCreated,
		BindingsRecycled:  gs.BindingsRecycled,
		InboundPackets:    gs.InboundPackets,
		DeliveredToVM:     gs.DeliveredToVM,
		OutboundDropped:   gs.OutDropped,
		OutboundToSource:  gs.OutToSource,
		OutboundReflected: gs.OutReflected,
		DNSProxied:        gs.OutDNSProxied,
		SpawnFailures:     gs.SpawnFailures + fs.SpawnFailures,
		DetectedInfected:  gs.DetectedInfected,
		ScanFiltered:      gs.ScanFiltered,
		MemoryInUse:       t.Memory,
	}
}

// Close stops background activity (recycling timers), finishes spans
// still open in the trace, writes whatever the event log and traces
// still buffer, and flushes capture files.
func (hf *Honeyfarm) Close() {
	if err := hf.eng.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "potemkin: close: %v\n", err)
	}
}

// MetricsText renders the live telemetry registry in the Prometheus
// text exposition format (empty when Options.Metrics is off). Any
// goroutine may call it at any time: it reads atomics published at
// epoch barriers (see Options.Metrics), up to a second of simulated time
// behind mid-run and exact once the driving call has returned.
func (hf *Honeyfarm) MetricsText() []byte {
	if hf.metrics == nil {
		return nil
	}
	var buf bytes.Buffer
	hf.metrics.WriteProm(&buf)
	return buf.Bytes()
}

// Internals exposes the underlying components for advanced use. The
// types live in internal packages: importable by code in this module,
// visible as opaque handles elsewhere. Outside tests only bench/ calls
// it (until ROADMAP item 1(l)), and make vet refuses a new caller: read
// the farm through Stats, Totals, Snapshot and WithProgress, and feed it
// through Replay.
type Internals struct {
	// Engine is the shard engine every Honeyfarm runs on. Its Domains
	// — one per gateway shard — hold the kernel, gateway, farm slice
	// and safe resolver; between Honeyfarm calls (or, without Parallel,
	// from inside a simulation event) they may be read and scheduled on
	// directly.
	Engine *core.ShardEngine
}

// Internals returns the underlying simulation objects.
func (hf *Honeyfarm) Internals() Internals { return Internals{Engine: hf.eng} }
