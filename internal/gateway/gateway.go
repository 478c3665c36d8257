// Package gateway implements the Potemkin gateway router — the control
// point the paper's architecture hangs on. The gateway:
//
//   - receives telescope traffic (GRE-tunnelled from border routers),
//     binds destination IPs to VMs on demand, and queues packets while a
//     flash clone is in flight (scalability: physical resources are
//     committed only to addresses that receive traffic);
//   - tracks per-binding peers so honeypot replies reach the scanner
//     that elicited them (fidelity);
//   - enforces containment on all VM-originated traffic: deny by
//     default, allow replies to the eliciting source, proxy DNS to a
//     safe resolver, and optionally reflect other outbound connections
//     back into the honeyfarm so the next stage of a multi-stage
//     infection is captured rather than released;
//   - recycles idle VMs so a small farm covers a large address space.
//
// The gateway operates on real wire bytes at its edges (GRE decap,
// header parse) so its throughput benchmarks (E4) measure honest work.
package gateway

import (
	"errors"
	"slices"
	"sort"
	"time"

	"potemkin/internal/free"
	"potemkin/internal/metrics"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/trace"
)

// Policy selects the outbound-containment mode.
type Policy int

// Containment policies, in decreasing order of permissiveness.
const (
	// PolicyOpen forwards all outbound traffic to the real network —
	// the dangerous baseline the paper argues against. Only for
	// experiments measuring leakage.
	PolicyOpen Policy = iota
	// PolicyDropAll drops every VM-originated packet that is not
	// addressed inside the honeyfarm. Maximum containment, minimum
	// fidelity (even replies to the scanner are lost).
	PolicyDropAll
	// PolicyReflectSource additionally allows packets addressed to a
	// remote that previously contacted the same VM (replies/handshakes).
	PolicyReflectSource
	// PolicyInternalReflect additionally redirects other outbound
	// connections to fresh honeyfarm addresses, spawning new VMs to
	// play the remote side — capturing multi-stage behaviour without
	// leaking a byte.
	PolicyInternalReflect
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyOpen:
		return "open"
	case PolicyDropAll:
		return "drop-all"
	case PolicyReflectSource:
		return "reflect-source"
	case PolicyInternalReflect:
		return "internal-reflect"
	default:
		return "unknown"
	}
}

// VMRef is the gateway's handle on a farm VM.
type VMRef interface {
	// Deliver hands the VM an inbound packet. A packet marked Ephemeral
	// is good only for the call: to keep it, Clone it.
	Deliver(now sim.Time, pkt *netsim.Packet)
	// Destroy reclaims the VM.
	Destroy(now sim.Time)
}

// SpawnHint tells the backend why a VM is being created.
type SpawnHint struct {
	// Reflected marks VMs created by internal reflection.
	Reflected bool
	// Source is the address whose traffic triggered the spawn.
	Source netsim.Addr
}

// Backend creates VMs on demand. The farm implements it; tests use
// fakes. ready must eventually be called exactly once, with either a
// VMRef or an error (capacity exhausted).
type Backend interface {
	RequestVM(now sim.Time, addr netsim.Addr, hint SpawnHint, ready func(VMRef, error))
}

// ErrBackendFull is the sentinel a Backend wraps into (or matches via
// an Is method on) the error it hands ready when its entire pool is at
// capacity — as opposed to a transient, retryable failure. The
// gateway's shed mode (Config.ShedOnFull) keys off it.
var ErrBackendFull = errors.New("backend at capacity")

// PoolOwner is implemented by a backend that keeps free lists of its
// own: the gateway's scrub trims them once a tick, after it has recycled
// what expired, so the backend's lists follow the same clock as the
// gateway's (see Gateway.EachPool).
type PoolOwner interface {
	EachPool(fn func(name string, p free.Trimmer, keep int))
}

// Recycler is implemented by a gateway frontend (Gateway, or a
// decorator around one) that can tear a binding down on demand. The backend calls it when it
// loses a VM out from under a binding — a crashed server — so the
// address is released for rebinding instead of pointing at a corpse.
type Recycler interface {
	RecycleBinding(now sim.Time, addr netsim.Addr, detail string) bool
}

// Config parameterizes a gateway.
type Config struct {
	// Space is the monitored address range the gateway answers for.
	Space netsim.Prefix

	Policy Policy

	// Resolver is where VM-originated UDP/53 is rewritten to, under
	// every policy but PolicyOpen.
	Resolver netsim.Addr

	// IdleTimeout recycles a binding after this much inactivity.
	// Zero disables idle recycling.
	IdleTimeout time.Duration
	// MaxLifetime recycles a binding regardless of activity. Zero
	// disables the cap.
	MaxLifetime time.Duration

	// ReflectionLimit bounds live internally-reflected bindings.
	ReflectionLimit int

	// DetectThreshold flags a VM as compromised after it attempts
	// outbound contact with this many distinct remotes. Zero disables
	// detection.
	DetectThreshold int

	// SpawnRetryBudget re-requests a VM from the backend after a failed
	// spawn, up to this many extra attempts per binding, before the
	// binding is torn down. Zero disables retries (every failure is
	// final, the pre-fault behaviour).
	SpawnRetryBudget int

	// ShedOnFull enables graceful degradation under farm exhaustion:
	// after a spawn fails with ErrBackendFull, new bindings are refused
	// (counted as BindingsShed, logged as EvShed) for this duration
	// instead of queueing more doomed clone requests. Existing bindings
	// and their pending queues are untouched. Zero disables shedding.
	ShedOnFull time.Duration

	// ScanFilter, when positive, sheds load from repeat scanners: once
	// a source has had N probes to the same destination port answered,
	// further probes from it to *unbound* addresses are dropped without
	// instantiating a VM. (The paper argues a honeyfarm must filter
	// redundant scans or a single loud scanner will consume the farm.)
	// Probes to already-bound addresses always pass, so an established
	// conversation is never cut. Zero disables filtering.
	ScanFilter int

	// ExternalOut receives packets the policy allows to leave (open
	// policy, reflect-to-source, DNS). Nil means count-and-drop. Like
	// every consumer of gateway traffic it must Clone a packet marked
	// Ephemeral to keep it past the call.
	ExternalOut func(now sim.Time, pkt *netsim.Packet)

	// OnDetected fires when the scan detector flags a binding.
	OnDetected func(now sim.Time, addr netsim.Addr, distinctTargets int)

	// EventSink, when set, receives the forensic event log (see
	// JSONLSink). Nil disables logging.
	EventSink EventSink

	// Tracer, when set, records every binding's lifecycle as a span
	// tree (bind → spawn → place → clone → active → recycle) and folds
	// the forensic event kinds into span events, so the trace and the
	// event log share one source of truth. Nil (the default) disables
	// tracing; the hot paths then pay a single nil check.
	Tracer *trace.Tracer

	// Capture, when set, taps every packet crossing the gateway (see
	// CaptureSink). Nil disables capture.
	Capture CaptureSink

	// Metrics is ignored. The gateway counts in Stats and DetectTime,
	// which the gateway's owner publishes (see core.StatsView).
	Metrics *metrics.Registry
}

// DefaultConfig returns the standard experiment configuration: a /16,
// internal reflection, 60 s idle recycling.
func DefaultConfig() Config {
	return Config{
		Space:           netsim.MustParsePrefix("10.5.0.0/16"),
		Policy:          PolicyInternalReflect,
		Resolver:        netsim.MustParseAddr("172.16.0.53"),
		IdleTimeout:     60 * time.Second,
		ReflectionLimit: 4096,
		DetectThreshold: 5,
	}
}

// Fixed per-binding bounds.
const (
	// pendingLimit bounds packets queued per binding during cloning.
	pendingLimit = 64
	// pendingKeep is the most slots a drained queue keeps for the
	// binding's next clone (see drained). Nearly every clone queues one
	// packet: on replay-radiation at seed 1, 11,041 of 11,458 flushes
	// held one, 336 two and 44 three.
	pendingKeep = 4
	// maxPeers bounds remembered remote peers per binding.
	maxPeers = 64
	// spawnRetryBackoff is the delay before the first spawn retry; it
	// doubles on each subsequent attempt.
	spawnRetryBackoff = 100 * time.Millisecond
)

// Stats counts gateway activity, and is the only place it is counted.
// All counters are cumulative. The metric tag names the registry series
// a field is published as (see metrics.Exporter); Add merges shards.
type Stats struct {
	// Inbound path.
	InboundPackets   uint64 `metric:"gateway_inbound_packets_total"`
	InboundNonIP     uint64 `metric:"gateway_inbound_non_ip_total"`  // undecodable frames
	InboundOutside   uint64 `metric:"gateway_inbound_outside_total"` // destination outside the monitored space
	BindingsCreated  uint64 `metric:"gateway_bindings_created_total"`
	BindingsRecycled uint64 `metric:"gateway_bindings_recycled_total"`
	SpawnFailures    uint64 `metric:"gateway_spawn_failures_total"`
	SpawnRetries     uint64 `metric:"gateway_spawn_retries_total"`   // failed spawns re-requested after backoff
	BindingsShed     uint64 `metric:"gateway_bindings_shed_total"`   // new bindings refused while shedding load
	BackendLost      uint64 `metric:"gateway_backend_lost_total"`    // bindings recycled because the backend lost their VM
	PendingDropped   uint64 `metric:"gateway_pending_dropped_total"` // queue overflow during clone
	DeliveredToVM    uint64 `metric:"gateway_delivered_to_vm_total"`

	// Outbound path, by disposition.
	OutAllowedOpen    uint64 `metric:"gateway_out_allowed_open_total"` // PolicyOpen pass-through
	OutToSource       uint64 `metric:"gateway_out_to_source_total"`    // replies to eliciting remote
	OutDNSProxied     uint64 `metric:"gateway_out_dns_proxied_total"`
	OutInternal       uint64 `metric:"gateway_out_internal_total"`  // dst already inside the honeyfarm
	OutReflected      uint64 `metric:"gateway_out_reflected_total"` // redirected by internal reflection
	OutDropped        uint64 `metric:"gateway_out_dropped_total"`
	OutReflectDenied  uint64 `metric:"gateway_out_reflect_denied_total"` // reflection limit hit
	DetectedInfected  uint64 `metric:"gateway_detected_infected_total"`
	ScanFiltered      uint64 `metric:"gateway_scan_filtered_total"` // inbound probes shed by the scan filter
	PeakBindings      int    `metric:"gateway_peak_bindings"`       // summed over shards, the sum of per-shard peaks: above one shard, an upper bound on the farm-wide peak
	ReflectionsActive int    `metric:"gateway_reflections_active"`
	// PendingQueued is the current number of packets waiting in pending
	// queues across all bindings mid-clone — a live gauge, not a
	// cumulative counter.
	PendingQueued int `metric:"gateway_pending_queued"`

	// Every outbound packet that aims outside the farm is attempted;
	// only what the policy lets reach the world is permitted.
	EgressAttempted uint64 `metric:"gateway_egress_attempted_total"`
	EgressPermitted uint64 `metric:"gateway_egress_permitted_total"`
	// BindingsLive is the current number of bindings, pending and active.
	BindingsLive int `metric:"gateway_bindings_live"`
}

// Add accumulates src into s, field by field.
func (s *Stats) Add(src *Stats) {
	s.InboundPackets += src.InboundPackets
	s.InboundNonIP += src.InboundNonIP
	s.InboundOutside += src.InboundOutside
	s.BindingsCreated += src.BindingsCreated
	s.BindingsRecycled += src.BindingsRecycled
	s.SpawnFailures += src.SpawnFailures
	s.SpawnRetries += src.SpawnRetries
	s.BindingsShed += src.BindingsShed
	s.BackendLost += src.BackendLost
	s.PendingDropped += src.PendingDropped
	s.DeliveredToVM += src.DeliveredToVM
	s.OutAllowedOpen += src.OutAllowedOpen
	s.OutToSource += src.OutToSource
	s.OutDNSProxied += src.OutDNSProxied
	s.OutInternal += src.OutInternal
	s.OutReflected += src.OutReflected
	s.OutDropped += src.OutDropped
	s.OutReflectDenied += src.OutReflectDenied
	s.DetectedInfected += src.DetectedInfected
	s.ScanFiltered += src.ScanFiltered
	s.PeakBindings += src.PeakBindings
	s.ReflectionsActive += src.ReflectionsActive
	s.PendingQueued += src.PendingQueued
	s.EgressAttempted += src.EgressAttempted
	s.EgressPermitted += src.EgressPermitted
	s.BindingsLive += src.BindingsLive
}

// Gateway is the honeyfarm's routing and containment engine. It is
// single-threaded under the sim kernel, like the rest of the simulated
// control plane; the wire-level entry points used by benchmarks are
// pure functions of gateway state.
type Gateway struct {
	Cfg Config
	K   *sim.Kernel

	backend  Backend
	bindings map[netsim.Addr]*Binding
	// reflections maps external destination -> honeyfarm address chosen
	// for it, so one remote endpoint is impersonated by one stable VM.
	reflections map[netsim.Addr]netsim.Addr
	// scanSeen counts serviced probes per (source, dstPort) for the
	// scan filter.
	scanSeen map[scanKey]int
	rng      *sim.RNG
	stats    Stats
	scrub    *sim.Ticker
	// expiry indexes bindings by recycling deadline (see expiry.go);
	// expirySeq breaks deadline ties deterministically.
	expiry    expiryHeap
	expirySeq uint64
	// scrubbed and requeued are scrubOnce's working lists, kept between
	// ticks; freeBindings are recycled bindings' structs, maps attached;
	// freeHeld are spare held packets (see held.go). Each scrub trims
	// both (see trimFree).
	scrubbed     []netsim.Addr
	requeued     []*Binding
	freeBindings free.Pool[*Binding]
	freeHeld     free.Pool[*netsim.Packet]
	// pendingDepth is the live count of packets queued across all
	// pending bindings (the Stats.PendingQueued gauge).
	pendingDepth int
	// shedUntil, while in the future, refuses new bindings (ShedOnFull).
	shedUntil sim.Time

	// Sharding hooks (set by Sharded; nil for a standalone gateway):
	// owns restricts which monitored addresses this instance may bind,
	// and reinject routes internal traffic for addresses it does not
	// own back through the shard router.
	owns     func(netsim.Addr) bool
	reinject func(now sim.Time, pkt *netsim.Packet)

	// detectTime records the sim-time (ms since start) of each detector
	// firing: Min is time to first detection.
	detectTime metrics.Histogram
}

// scanKey identifies a scanner's probe signature.
type scanKey struct {
	src  netsim.Addr
	port uint16
}

// New creates a gateway over backend.
func New(k *sim.Kernel, cfg Config, backend Backend) *Gateway {
	if cfg.ReflectionLimit <= 0 {
		cfg.ReflectionLimit = 4096
	}
	g := &Gateway{
		Cfg:         cfg,
		K:           k,
		backend:     backend,
		bindings:    make(map[netsim.Addr]*Binding),
		reflections: make(map[netsim.Addr]netsim.Addr),
		scanSeen:    make(map[scanKey]int),
		rng:         k.Stream("gateway"),
	}
	g.startScrubber()
	return g
}

// SetShardHooks installs the sharding hooks: owns restricts which
// monitored addresses this instance may bind (reflection targets are
// drawn from owned addresses only), and reinject routes internal
// traffic for addresses it does not own back to the owning shard. The
// shard engine uses it to hand cross-shard traffic to the epoch
// barrier. Call before traffic flows; nil hooks restore standalone
// behaviour.
func (g *Gateway) SetShardHooks(owns func(netsim.Addr) bool, reinject func(now sim.Time, pkt *netsim.Packet)) {
	g.owns = owns
	g.reinject = reinject
}

// Stats returns a copy of the counters.
func (g *Gateway) Stats() Stats {
	s := g.stats
	s.ReflectionsActive = len(g.reflections)
	s.PendingQueued = g.pendingDepth
	s.BindingsLive = len(g.bindings)
	return s
}

// DetectTime is the distribution of detector firings over simulated
// time, in milliseconds since the start: gateway_detect_time_ms.
func (g *Gateway) DetectTime() *metrics.Histogram { return &g.detectTime }

// NumBindings returns the number of live bindings (pending + active).
func (g *Gateway) NumBindings() int { return len(g.bindings) }

// Binding returns the binding for addr, or nil. The handle is good until
// the binding is recycled (see Binding).
func (g *Gateway) Binding(addr netsim.Addr) *Binding { return g.bindings[addr] }

// Close stops background recycling.
func (g *Gateway) Close() {
	if g.scrub != nil {
		g.scrub.Stop()
	}
}

func (g *Gateway) startScrubber() {
	if g.Cfg.IdleTimeout == 0 && g.Cfg.MaxLifetime == 0 {
		return
	}
	period := g.Cfg.IdleTimeout / 4
	if period == 0 || (g.Cfg.MaxLifetime > 0 && g.Cfg.MaxLifetime/4 < period) {
		period = g.Cfg.MaxLifetime / 4
	}
	if period < 50*time.Millisecond {
		period = 50 * time.Millisecond
	}
	g.scrub = g.K.Every(period, g.scrubOnce)
}

// Scrub runs one recycling pass immediately (operational tooling and
// benchmarks; the background ticker calls the same pass).
func (g *Gateway) Scrub(now sim.Time) { g.scrubOnce(now) }

// scrubOnce recycles bindings that exceeded idle or lifetime limits,
// driven by the expiry heap: only entries whose pushed deadline has
// arrived are examined, so a tick over a quiet steady state is O(1).
// Expired addresses are recycled in sorted order so the event log is a
// pure function of the seed.
func (g *Gateway) scrubOnce(now sim.Time) {
	expired, requeue := g.scrubbed[:0], g.requeued[:0]
	for len(g.expiry) > 0 && g.expiry[0].at <= now {
		e := g.expiry.pop()
		b, ok := g.bindings[e.addr]
		if !ok || b != e.b || b.gen != e.gen {
			continue // stale: recycled, or the address was rebound
		}
		at, _ := g.bindingDeadline(b)
		if b.State != BindingActive || at > now {
			// Mid-clone (never recycle those), or activity pushed the
			// real deadline past the one recorded at push time. Re-push
			// after the pop loop — a pending binding's deadline may
			// already have arrived, and pushing it now would pop again
			// in this same pass.
			requeue = append(requeue, b)
			continue
		}
		expired = append(expired, e.addr)
	}
	for _, b := range requeue {
		g.scheduleExpiry(b.Addr, b)
	}
	slices.Sort(expired)
	for _, addr := range expired {
		g.recycle(now, addr, g.bindings[addr])
	}
	clear(requeue)
	g.scrubbed, g.requeued = expired[:0], requeue[:0]
	g.trimFree()
}

// trimFree ends a scrub period for every free list the scrub releases
// into: the gateway's own, and through the backend the farm's, its
// servers', their stores' and its guests'. Each keeps what its largest
// period's demand needs (free.Pool.Trim); the scrub is the clock, so
// trimming adds no kernel event.
func (g *Gateway) trimFree() {
	g.EachPool(trim)
	if o, ok := g.backend.(PoolOwner); ok {
		o.EachPool(trim)
	}
}

func trim(_ string, p free.Trimmer, keep int) { p.Trim(keep) }

// EachPool visits the gateway's free lists, each with the multiple of
// its largest period's demand that a trim keeps.
func (g *Gateway) EachPool(fn func(name string, p free.Trimmer, keep int)) {
	fn("gateway.bindings", &g.freeBindings, 1)
	fn("gateway.held", &g.freeHeld, 1)
}

func (g *Gateway) recycle(now sim.Time, addr netsim.Addr, b *Binding) {
	g.logEvent(now, EvRecycled, addr, 0, "")
	g.pendingDepth -= len(b.pending)
	if b.VM != nil {
		b.VM.Destroy(now)
	}
	delete(g.bindings, addr)
	for _, h := range b.pending {
		g.drop(h)
	}
	b.pending = drained(b.pending)
	b.pendingAt = drained(b.pendingAt)
	if b.Hint.Reflected {
		// Drop the reflection route so a later contact re-instantiates.
		for ext, internal := range g.reflections {
			if internal == addr {
				delete(g.reflections, ext)
			}
		}
	}
	g.stats.BindingsRecycled++
	if tr := g.Cfg.Tracer; tr != nil && b.span != nil {
		b.activeSpan.Finish(now)
		if b.spawnSpan != nil && !b.spawnSpan.Done() {
			b.spawnSpan.Event(now, "abandoned", "recycled mid-clone")
			b.spawnSpan.Finish(now)
		}
		b.span.Finish(now)
		// Drop the whole context stack for the address: if recycle ran
		// inside a synchronous spawn callback the spawn span is still
		// pushed above the root, and a plain Pop would strand it.
		tr.Clear(uint64(addr))
	}
	b.gone = true
	b.release()
}

// RecycleBinding implements Recycler: the backend reports it lost the
// VM behind addr (server crash), so the binding is recycled and the
// address freed for rebinding. Queued packets on a still-pending
// binding are dropped. Reports whether a binding existed.
func (g *Gateway) RecycleBinding(now sim.Time, addr netsim.Addr, detail string) bool {
	b, ok := g.bindings[addr]
	if !ok {
		return false
	}
	g.stats.BackendLost++
	g.stats.PendingDropped += uint64(len(b.pending))
	g.logEvent(now, EvBackendLost, addr, 0, detail)
	g.recycle(now, addr, b)
	return true
}

// RecycleAll destroys every binding (end of experiment), in sorted
// address order for a reproducible event log.
func (g *Gateway) RecycleAll(now sim.Time) {
	addrs := make([]netsim.Addr, 0, len(g.bindings))
	for addr := range g.bindings {
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, addr := range addrs {
		g.recycle(now, addr, g.bindings[addr])
	}
}
