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
	"path/filepath"
	"time"

	"potemkin/internal/core"
	"potemkin/internal/dns"
	"potemkin/internal/farm"
	"potemkin/internal/gateway"
	"potemkin/internal/guest"
	"potemkin/internal/ingest"
	"potemkin/internal/metrics"
	"potemkin/internal/netsim"
	"potemkin/internal/scenario"
	"potemkin/internal/sim"
	"potemkin/internal/telescope"
	"potemkin/internal/vmm"
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

	// FullBoot disables flash cloning (baseline mode).
	FullBoot bool

	// SnapshotWarmup, when positive, prepares images the way the paper
	// deployed them: each server boots a reference VM, runs the guest
	// workload for this long, and snapshots the settled system as the
	// clone source. New returns with the simulation clock already
	// advanced past boot+warmup.
	SnapshotWarmup time.Duration

	// ScanFilter, when positive, sheds probes from sources whose scans
	// have already been serviced this many times per destination port,
	// without instantiating VMs for them. See gateway.Config.ScanFilter.
	ScanFilter int
	// PinDetected quarantines VMs flagged by the scan detector instead
	// of recycling them, preserving the infection for analysis.
	PinDetected bool

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
	// Metrics()/MetricsText() without touching simulation state. The
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

	// CheckpointDir, when set, saves a delta checkpoint of every VM the
	// scan detector flags (its dirtied memory pages) to
	// <dir>/<addr>-<t>.ckpt before the VM can be recycled.
	CheckpointDir string

	// CaptureDir, when set, records every packet crossing the gateway,
	// payloads included, into the pcap savefiles in.pcap, tovm.pcap and
	// out.pcap (potemkind -pcap replays them). Call Close to flush them.
	// With several gateway shards each captures into its own
	// subdirectory (shard-0, shard-1, …): shards never share a file.
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
	if o.SnapshotWarmup < 0 {
		add("negative SnapshotWarmup")
	}
	if o.SnapshotWarmup > 0 && o.FullBoot {
		add("SnapshotWarmup requires flash cloning (FullBoot off)")
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

	captures []*captureFile
}

// EngineConfig translates o into the shard engine's configuration — one
// domain per gateway shard, with the policy, idle recycling, guest, and
// a scenario's guest and target picker — after validating it. New adds
// sinks, hooks and capture to it; potemkind's cluster roles run on it
// as it is.
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
	fc.FullBoot = o.FullBoot
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
	gc.ScanFilter = o.ScanFilter
	gc.PinDetected = o.PinDetected
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
		Shards:   o.GatewayShards,
		Parallel: o.Parallel,
		Seed:     o.Seed,
		Gateway:  gc,
		Farm:     fc,
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
	if opts.CheckpointDir != "" || hooks.OnDetected != nil {
		ec.OnDetected = func(now sim.Time, a netsim.Addr, n int) {
			if opts.CheckpointDir != "" {
				if err := hf.checkpointVM(now, a); err != nil {
					fmt.Fprintf(os.Stderr, "potemkin: checkpoint %s: %v\n", a, err)
				}
			}
			if hooks.OnDetected != nil {
				hooks.OnDetected(a.String(), n)
			}
		}
	}
	if opts.CaptureDir != "" {
		ec.Capture = func(shard int) (gateway.CaptureSink, error) {
			dir := opts.CaptureDir
			if opts.GatewayShards > 1 {
				dir = filepath.Join(dir, fmt.Sprintf("shard-%d", shard))
			}
			return hf.openCapture(dir)
		}
	}
	eng, err := core.NewShardEngine(ec)
	if err != nil {
		return hf.fail(err)
	}
	hf.eng = eng
	if opts.SnapshotWarmup > 0 {
		if err := eng.PrepareSnapshotImages(ec.Farm.Image.Name+"-settled", opts.SnapshotWarmup); err != nil {
			eng.Close() // stop the shard workers; the warmup error is the one to report
			return hf.fail(err)
		}
	}
	return hf, nil
}

// fail is the single error exit: whatever partial state New built —
// in particular capture files already opened by openCapture — is
// flushed and closed before the error is returned, so a failed New
// never leaks open file handles or unflushed buffers.
func (hf *Honeyfarm) fail(err error) (*Honeyfarm, error) {
	hf.closeCaptures()
	return nil, err
}

// Resolver exposes the built-in safe DNS resolver (to add zone entries
// or inspect query counts). Each gateway shard runs its own resolver
// (name synthesis is deterministic by name, so all shards agree on
// every answer); this returns shard 0's — use Internals().Engine for
// the rest.
func (hf *Honeyfarm) Resolver() *dns.Resolver { return hf.eng.Domains()[0].Resolver }

// checkpointVM saves the delta state of the VM bound to addr into
// CheckpointDir.
func (hf *Honeyfarm) checkpointVM(now sim.Time, addr netsim.Addr) error {
	vm := hf.eng.VMAt(addr)
	if vm == nil {
		return fmt.Errorf("no VM bound")
	}
	ck := vmm.TakeCheckpoint(vm)
	if err := os.MkdirAll(hf.opts.CheckpointDir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-%.3fs.ckpt", addr, now.Seconds())
	f, err := os.Create(filepath.Join(hf.opts.CheckpointDir, name))
	if err != nil {
		return err
	}
	if _, err := ck.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// MustNew is New that panics on error (examples, tests).
func MustNew(opts Options) *Honeyfarm {
	hf, err := New(opts)
	if err != nil {
		panic(err)
	}
	return hf
}

// Now returns elapsed simulated time.
func (hf *Honeyfarm) Now() time.Duration { return time.Duration(hf.eng.Now()) }

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
func (hf *Honeyfarm) Stats() Stats {
	t := hf.eng.Totals()
	return StatsOf(time.Duration(hf.eng.Now()), &t)
}

// StatsOf shapes the shard domains' summed counters at simulated time
// now as Stats: Honeyfarm.Stats and potemkind's cluster coordinator
// report through it, so their -json output compares byte for byte.
func StatsOf(now time.Duration, t *core.Totals) Stats {
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

// LiveVMs returns the current VM count (convenience for sampling loops).
func (hf *Honeyfarm) LiveVMs() int { return hf.eng.LiveVMs() }

// closeCaptures flushes and closes every open capture file.
func (hf *Honeyfarm) closeCaptures() {
	for _, c := range hf.captures {
		c.flush()
	}
	hf.captures = nil
}

// Close stops background activity (recycling timers), finishes spans
// still open in the trace, writes whatever the event log and traces
// still buffer, and flushes capture files.
func (hf *Honeyfarm) Close() {
	if err := hf.eng.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "potemkin: close: %v\n", err)
	}
	hf.closeCaptures()
}

// Metrics exposes the live telemetry registry when Options.Metrics is
// set; nil — safe to call methods on — otherwise. The registry may be
// read (Snapshot, WriteProm) from any goroutine at any time, including
// mid-run: every series is a plain atomic, so a scrape never touches
// simulation state. The farm's counters are published at epoch barriers
// (see Options.Metrics): up to a second of simulated time behind mid-run,
// exact once the call driving the farm has returned.
func (hf *Honeyfarm) Metrics() *metrics.Registry { return hf.metrics }

// MetricsText renders the registry in the Prometheus text exposition
// format (empty when Options.Metrics is off).
func (hf *Honeyfarm) MetricsText() []byte {
	if hf.metrics == nil {
		return nil
	}
	var buf bytes.Buffer
	hf.metrics.WriteProm(&buf)
	return buf.Bytes()
}

// captureFile is one open capture savefile: full marshaled packets,
// classic pcap.
type captureFile struct {
	f   *os.File
	pw  *ingest.PcapWriter
	buf []byte // marshal scratch
}

func (cf *captureFile) flush() {
	cf.pw.Flush()
	cf.f.Close()
}

// openCapture creates the per-direction pcap writers.
func (hf *Honeyfarm) openCapture(dir string) (gateway.CaptureSink, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	byDir := make(map[gateway.Direction]*captureFile, 3)
	for d, name := range map[gateway.Direction]string{
		gateway.CapInbound: "in",
		gateway.CapToVM:    "tovm",
		gateway.CapEgress:  "out",
	} {
		f, err := os.Create(filepath.Join(dir, name+".pcap"))
		if err != nil {
			return nil, err
		}
		pw, err := ingest.NewPcapWriter(f)
		if err != nil {
			f.Close()
			return nil, err
		}
		cf := &captureFile{f: f, pw: pw}
		byDir[d] = cf
		hf.captures = append(hf.captures, cf)
	}
	return func(now sim.Time, d gateway.Direction, pkt *netsim.Packet) {
		cf, ok := byDir[d]
		if !ok {
			return
		}
		if n := pkt.WireLen(); cap(cf.buf) < n {
			cf.buf = make([]byte, n)
		} else {
			cf.buf = cf.buf[:n]
		}
		pkt.MarshalInto(cf.buf)
		if err := cf.pw.WritePacket(now, cf.buf); err != nil {
			fmt.Fprintf(os.Stderr, "potemkin: capture: %v\n", err)
		}
	}, nil
}

// Internals exposes the underlying components for advanced use. The
// types live in internal packages: importable by code in this module
// (cmd/, examples/, experiments), visible as opaque handles elsewhere.
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
