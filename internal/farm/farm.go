// Package farm is the honeyfarm control plane: a pool of simulated
// physical servers (internal/vmm hosts) behind the gateway. It
// implements gateway.Backend — flash-cloning a VM whenever the gateway
// binds a new address, attaching a guest personality to it, wiring the
// guest's outbound traffic back through the gateway's containment
// engine, and reclaiming VMs the gateway recycles.
package farm

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"potemkin/internal/gateway"
	"potemkin/internal/guest"
	"potemkin/internal/metrics"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/trace"
	"potemkin/internal/vmm"
)

// ImageSpec describes the reference image every server registers.
type ImageSpec struct {
	Name          string
	NumPages      uint64
	ResidentPages uint64
	// DiskBlocks is ignored: VMs have no disk. It is held only for
	// bench/, which reads it.
	DiskBlocks uint64
	Seed       uint64
}

// DefaultImage is a 128 MiB guest of which 32 MiB is resident after
// boot — small enough to simulate densely, large enough that full-copy
// baselines visibly exhaust hosts.
func DefaultImage() ImageSpec {
	return ImageSpec{
		Name:          "winxp",
		NumPages:      32768, // 128 MiB
		ResidentPages: 8192,  // 32 MiB
		Seed:          42,
	}
}

// Config parameterizes a farm.
type Config struct {
	Servers    int
	HostConfig vmm.HostConfig // template; Name is suffixed per server
	Image      ImageSpec
	Profile    *guest.Profile

	// FullBoot switches to the no-flash-cloning baseline.
	FullBoot bool

	// PickTarget chooses scan destinations for infected guests; nil
	// defaults to uniform over the IPv4 space.
	PickTarget guest.TargetPicker

	// PickTargetFor, when set, builds a self-aware target picker per
	// guest address and takes precedence over PickTarget. Structured
	// propagation (P2P overlays, lateral movement) needs the picker to
	// know who is asking: each infected guest scans its own peer table
	// rather than one shared distribution.
	PickTargetFor func(self netsim.Addr) guest.TargetPicker

	// OnInfected observes guest compromises (experiments hook this).
	OnInfected func(now sim.Time, in *guest.Instance)

	// Metrics is ignored. The farm, its servers and its guests count in
	// Stats structs and Histograms, which the farm's owner publishes (see
	// core.StatsView).
	Metrics *metrics.Registry
}

// DefaultConfig returns a 4-server farm of 16 GiB hosts running the
// default image with the Windows XP personality.
func DefaultConfig() Config {
	return Config{
		Servers:    4,
		HostConfig: vmm.DefaultHostConfig("server"),
		Image:      DefaultImage(),
		Profile:    guest.WindowsXP(),
	}
}

// The intra-farm network hop: UplinkLatency delays guest-originated
// packets on their way to the gateway, DownlinkLatency gateway-to-VM
// delivery.
const (
	UplinkLatency   = 100 * time.Microsecond
	DownlinkLatency = 100 * time.Microsecond
)

// A failed spawn is retried on another healthy server up to retryBudget
// times before the failure is reported to the gateway, the first retry
// after retryBackoff, doubling on each one after.
const (
	retryBudget  = 2
	retryBackoff = 100 * time.Millisecond
)

// Stats aggregates farm-level counters, the only place they are counted;
// a field is published as the series its metric tag names.
type Stats struct {
	Spawns        uint64 `metric:"farm_spawns_total"`
	SpawnFailures uint64 `metric:"farm_spawn_failures_total"` // requests that exhausted their retry budget (once per request)
	SpawnRetries  uint64 `metric:"farm_spawn_retries_total"`  // failed clone attempts re-placed on another server
	Reclaims      uint64 `metric:"farm_reclaims_total"`
	Infections    uint64 `metric:"farm_infections_total"`
	CrashRecycles uint64 `metric:"farm_crash_recycles_total"` // bindings stranded by server crashes, reported to the gateway
	LinkDrops     uint64 `metric:"farm_link_drops_total"`     // packets lost to farm<->gateway link outages
	PeakLiveVMs   int    `metric:"farm_peak_live_vms"`        // summed over shards, the sum of per-shard peaks: above one shard, an upper bound on the farm-wide peak
	// LiveVMs is Spawns - Reclaims: unlike Farm.LiveVMs it leaves out
	// clones still in flight.
	LiveVMs int `metric:"farm_live_vms"`
}

// Add accumulates src into s, field by field.
func (s *Stats) Add(src *Stats) {
	s.Spawns += src.Spawns
	s.SpawnFailures += src.SpawnFailures
	s.SpawnRetries += src.SpawnRetries
	s.Reclaims += src.Reclaims
	s.Infections += src.Infections
	s.CrashRecycles += src.CrashRecycles
	s.LinkDrops += src.LinkDrops
	s.PeakLiveVMs += src.PeakLiveVMs
	s.LiveVMs += src.LiveVMs
}

// ErrFarmFull reports that no healthy server could admit a VM. It
// matches gateway.ErrBackendFull under errors.Is, so the gateway's
// shed mode recognizes farm exhaustion.
var ErrFarmFull error = farmFullError{}

type farmFullError struct{}

func (farmFullError) Error() string { return "farm: all servers at capacity" }

func (farmFullError) Is(target error) bool { return target == gateway.ErrBackendFull }

// Farm is the server pool. It implements gateway.Backend.
type Farm struct {
	Cfg Config
	K   *sim.Kernel

	hosts []*vmm.VMHost
	gw    gateway.Egress

	// byAddr tracks the live VM for each bound address.
	byAddr map[netsim.Addr]*FarmVM

	// inflight holds VM requests whose clone has not completed, in
	// insertion order (a slice, not a map, so crash handling visits
	// them deterministically).
	inflight []*spawnReq
	// linkDown, while set, drops data-plane traffic between farm and
	// gateway (see SetLinkDown).
	linkDown bool

	stats Stats
	rr    int // round-robin cursor for tie-breaking

	// What every guest is built with: the uplink sender and the hooks
	// (infection observer, shared instruments) close over the farm
	// alone, so they are made once, not per clone.
	send  guest.Sender
	hooks guest.Hooks

	// Free lists. A spawn costs a request record and a FarmVM, a packet
	// crossing the intra-farm hop costs a timer callback holding it;
	// each comes from here and returns when its last user is done, so
	// clone → serve → reclaim allocates nothing on a warmed farm.
	freeReqs []*spawnReq
	freeVMs  []*FarmVM
	freeHops []*hop
	// up and down are the kernel lanes the two directions of the
	// intra-farm link queue their hops in: at a constant latency each
	// direction's hops are scheduled already in firing order.
	up, down *sim.Lane
	// tr, when non-nil, records placement spans under the gateway's
	// binding trace (shared via the tracer's per-address context).
	tr *trace.Tracer
}

// New builds the server pool. Call SetGateway before traffic flows.
// Configuration problems — no servers, no guest personality — are
// returned, not panicked: they come from callers, not internal bugs.
func New(k *sim.Kernel, cfg Config) (*Farm, error) {
	if cfg.Servers <= 0 {
		return nil, errors.New("farm: no servers")
	}
	if cfg.Profile == nil {
		return nil, errors.New("farm: nil guest profile")
	}
	if cfg.PickTarget == nil {
		cfg.PickTarget = func(r *sim.RNG) netsim.Addr { return netsim.Addr(r.Uint64n(1 << 32)) }
	}
	f := &Farm{Cfg: cfg, K: k, byAddr: make(map[netsim.Addr]*FarmVM), up: k.NewLane(), down: k.NewLane()}
	f.send = f.uplink
	f.hooks = guest.Hooks{OnInfected: f.infected, Metrics: &guest.Instruments{}}
	for i := 0; i < cfg.Servers; i++ {
		hc := cfg.HostConfig
		hc.Name = fmt.Sprintf("%s-%d", cfg.HostConfig.Name, i)
		h := vmm.NewHost(k, hc)
		h.RegisterImage(cfg.Image.Name, cfg.Image.NumPages, cfg.Image.ResidentPages, 0, cfg.Image.Seed)
		f.hosts = append(f.hosts, h)
	}
	return f, nil
}

// SetGateway wires the gateway (or sharded gateway set) guests send
// their traffic through.
func (f *Farm) SetGateway(g gateway.Egress) { f.gw = g }

// SetTracer wires span tracing through the farm and down into every
// server's VMM. A nil tracer (the default) disables tracing.
func (f *Farm) SetTracer(t *trace.Tracer) {
	f.tr = t
	for _, h := range f.hosts {
		h.SetTracer(t)
	}
}

// Hosts returns the server pool.
func (f *Farm) Hosts() []*vmm.VMHost { return f.hosts }

// Stats returns a copy of the farm counters.
func (f *Farm) Stats() Stats { return f.stats }

// HostStats sums the servers' VMM counters.
func (f *Farm) HostStats() vmm.HostStats {
	var sum vmm.HostStats
	for _, h := range f.hosts {
		st := h.Stats()
		sum.Add(&st)
	}
	return sum
}

// LiveVMs returns the number of VMs currently running across servers.
func (f *Farm) LiveVMs() int {
	n := 0
	for _, h := range f.hosts {
		n += h.NumVMs()
	}
	return n
}

// MemoryInUse sums modeled memory across servers.
func (f *Farm) MemoryInUse() uint64 {
	var b uint64
	for _, h := range f.hosts {
		b += h.MemoryInUse()
	}
	return b
}

// InfectedVMs counts live guests in the infected state.
func (f *Farm) InfectedVMs() int {
	n := 0
	for _, fv := range f.byAddr {
		if fv.Guest.Infected {
			n++
		}
	}
	return n
}

// VMAt returns the live VM bound to addr, or nil (checkpointing and
// forensics).
func (f *Farm) VMAt(addr netsim.Addr) *vmm.VM {
	if fv, ok := f.byAddr[addr]; ok {
		return fv.VM
	}
	return nil
}

// EachInstance visits every live guest.
func (f *Farm) EachInstance(fn func(*guest.Instance)) {
	for _, fv := range f.byAddr {
		fn(fv.Guest)
	}
}

// Deception is the distribution of attacker actions the farm's guests
// executed before going quiet: guest_deception_actions.
func (f *Farm) Deception() *metrics.Histogram { return &f.hooks.Metrics.Deception }

// GuestCumulative sums the counters of every guest the farm has run:
// the live ones' and the final ones of every guest it has stopped, so
// the sum is monotone. infected counts the live guests in the infected
// state, read on the same walk.
func (f *Farm) GuestCumulative() (sum guest.Stats, infected int) {
	sum = f.hooks.Metrics.Retired
	for _, fv := range f.byAddr {
		st := fv.Guest.Stats()
		sum.Add(&st)
		if fv.Guest.Infected {
			infected++
		}
	}
	return sum, infected
}

// pickHost selects a healthy server with capacity, preferring one
// other than avoid (the server whose clone attempt just failed).
func (f *Farm) pickHost(avoid *vmm.VMHost) *vmm.VMHost {
	if h := f.pickFrom(avoid); h != nil {
		return h
	}
	if avoid != nil && !avoid.Down() {
		// Only the just-failed server remains; better to hit it again
		// than to give up while capacity may be freeing.
		return f.pickFrom(nil)
	}
	return nil
}

// pickFrom puts the VM on the up server with the most free memory,
// skipping avoid.
func (f *Farm) pickFrom(avoid *vmm.VMHost) *vmm.VMHost {
	var best *vmm.VMHost
	for i := range f.hosts {
		h := f.hosts[(f.rr+i)%len(f.hosts)]
		if h == avoid || h.Down() {
			continue
		}
		if best == nil || h.MemoryFree() > best.MemoryFree() {
			best = h
		}
	}
	f.rr++
	if best != nil && best.MemoryFree() <= vmm.PerVMOverheadBytes {
		return nil
	}
	return best
}

// PrepareSnapshotImages runs the paper's image-preparation flow on
// every server: full-boot a reference VM, run the guest personality's
// workload for warmup (so the snapshot contains a *settled* system, not
// a freshly-booted one), snapshot it as name, destroy the reference VM,
// and switch the farm to clone from the snapshot. It must run before
// traffic flows and advances the simulation clock by roughly
// boot+warmup.
func (f *Farm) PrepareSnapshotImages(name string, warmup time.Duration) error {
	if len(f.byAddr) != 0 {
		return errors.New("farm: PrepareSnapshotImages after traffic started")
	}
	type prep struct {
		h  *vmm.VMHost
		vm *vmm.VM
		in *guest.Instance
	}
	var preps []prep
	for _, h := range f.hosts {
		vm, err := h.FullBoot(f.Cfg.Image.Name, 0, nil)
		if err != nil {
			return fmt.Errorf("farm: reference boot on %s: %w", h.Cfg.Name, err)
		}
		preps = append(preps, prep{h: h, vm: vm})
	}
	// Let every boot complete, then run the guest workload to settle.
	f.K.RunFor(vmm.DefaultLatencies().FullBoot * 2)
	for i := range preps {
		preps[i].in = guest.New(f.K, preps[i].vm, f.Cfg.Profile, func(*netsim.Packet) {}, nil, guest.Hooks{})
		preps[i].in.Start()
	}
	f.K.RunFor(warmup)
	for _, p := range preps {
		p.in.Stop()
		if _, err := p.h.SnapshotVM(p.vm.ID, name); err != nil {
			return fmt.Errorf("farm: snapshot on %s: %w", p.h.Cfg.Name, err)
		}
		p.h.Destroy(p.vm.ID)
	}
	f.Cfg.Image.Name = name
	return nil
}

// spawnReq tracks one gateway VM request through retries and server
// failures until its ready callback has fired. A request that ends in a
// VM goes back to the farm's free list; onCloned is req.cloned, bound
// once for the struct's lifetime.
type spawnReq struct {
	f        *Farm
	onCloned func(*vmm.VM)

	addr    netsim.Addr
	hint    gateway.SpawnHint
	ready   func(gateway.VMRef, error)
	attempt int         // retries already spent
	host    *vmm.VMHost // server currently cloning for this request
	done    bool

	// parent is the caller's span at request time (the gateway's spawn
	// span); span is the current attempt's placement span. Nil when
	// tracing is off.
	parent *trace.Span
	span   *trace.Span
}

// RequestVM implements gateway.Backend: flash-clone (or full-boot) a VM
// for addr and hand the gateway a reference when it is runnable. A
// failed clone is retried on another healthy server with exponential
// backoff, up to retryBudget extra attempts; ready fires exactly
// once either way.
func (f *Farm) RequestVM(now sim.Time, addr netsim.Addr, hint gateway.SpawnHint, ready func(gateway.VMRef, error)) {
	req := pop(&f.freeReqs)
	if req == nil {
		req = &spawnReq{f: f}
		req.onCloned = req.cloned
	}
	req.addr, req.hint, req.ready = addr, hint, ready
	if f.tr != nil {
		req.parent = f.tr.Current(uint64(addr))
	}
	f.inflight = append(f.inflight, req)
	f.trySpawn(now, req, nil)
}

// trySpawn places req's clone on a server, avoiding the one that just
// failed it.
func (f *Farm) trySpawn(now sim.Time, req *spawnReq, avoid *vmm.VMHost) {
	if f.tr != nil {
		req.span = f.tr.StartChild(now, req.parent, "place",
			trace.Attr{K: "attempt", V: strconv.Itoa(req.attempt)})
	}
	ps := req.span
	h := f.pickHost(avoid)
	if h == nil {
		f.failOrRetry(now, req, nil, ErrFarmFull)
		return
	}
	ps.SetAttr("server", h.Cfg.Name)
	req.host = h
	// The VMM parents its clone span under this attempt's placement span.
	f.tr.Push(uint64(req.addr), ps)
	var err error
	if f.Cfg.FullBoot {
		_, err = h.FullBoot(f.Cfg.Image.Name, req.addr, req.onCloned)
	} else {
		_, err = h.FlashClone(f.Cfg.Image.Name, req.addr, req.onCloned)
	}
	f.tr.Pop(uint64(req.addr), ps)
	if err != nil {
		req.host = nil
		f.failOrRetry(now, req, h, err)
		return
	}
	// Count VMs still mid-clone toward the peak: they hold memory.
	if live := f.LiveVMs(); live > f.stats.PeakLiveVMs {
		f.stats.PeakLiveVMs = live
	}
}

// cloned is the VMM's ready callback for req's current attempt (on
// req.host, under req.span). Only one attempt's clone is ever alive: an
// attempt ends early only by its server crashing, which destroys the
// clone (it never comes up) before the retry is placed.
func (req *spawnReq) cloned(vm *vmm.VM) {
	f, h := req.f, req.host
	if req.done {
		panic("farm: a clone came up for a request that had already concluded")
	}
	req.span.Finish(f.K.Now())
	f.finish(req)
	fv := f.attachGuest(h, vm, req.addr)
	f.stats.Spawns++
	f.stats.LiveVMs++
	if live := f.LiveVMs(); live > f.stats.PeakLiveVMs {
		f.stats.PeakLiveVMs = live
	}
	ready := req.ready
	*req = spawnReq{f: f, onCloned: req.onCloned}
	f.freeReqs = append(f.freeReqs, req)
	ready(fv, nil)
}

// failOrRetry retries a failed spawn after backoff while budget
// remains, otherwise reports the failure — SpawnFailures counts it
// exactly once per request, however many attempts it took.
func (f *Farm) failOrRetry(now sim.Time, req *spawnReq, failed *vmm.VMHost, err error) {
	req.host = nil
	if req.span != nil && !req.span.Done() {
		req.span.Event(now, "place-fail", err.Error())
		req.span.Finish(now)
	}
	if req.attempt >= retryBudget {
		f.finish(req)
		f.stats.SpawnFailures++
		f.K.After(0, func(sim.Time) { req.ready(nil, err) })
		return
	}
	req.attempt++
	f.stats.SpawnRetries++
	if req.parent != nil {
		req.parent.Event(now, "clone-retry", err.Error())
	}
	f.K.After(retryBackoff<<(req.attempt-1), func(then sim.Time) {
		if req.done {
			return
		}
		f.trySpawn(then, req, failed)
	})
}

// finish marks req concluded and drops it from the in-flight list.
func (f *Farm) finish(req *spawnReq) {
	req.done = true
	for i, r := range f.inflight {
		if r == req {
			f.inflight = append(f.inflight[:i], f.inflight[i+1:]...)
			return
		}
	}
}

// attachGuest builds the guest instance for a freshly-ready VM.
func (f *Farm) attachGuest(h *vmm.VMHost, vm *vmm.VM, addr netsim.Addr) *FarmVM {
	fv := pop(&f.freeVMs)
	if fv == nil {
		fv = new(FarmVM)
	}
	*fv = FarmVM{farm: f, VM: vm, Host: h}
	pick := f.Cfg.PickTarget
	if f.Cfg.PickTargetFor != nil {
		pick = f.Cfg.PickTargetFor(addr)
	}
	fv.Guest = guest.New(f.K, vm, f.Cfg.Profile, f.send, pick, f.hooks)
	fv.Guest.Start()
	// A late clone for a recycled-and-rebound address must not displace
	// the current holder's registration; it will be destroyed right after
	// the gateway sees it.
	if _, taken := f.byAddr[addr]; !taken {
		f.byAddr[addr] = fv
	}
	return fv
}

// pop takes the most recently freed item off a free list, or returns nil.
func pop[T any](list *[]*T) *T {
	n := len(*list)
	if n == 0 {
		return nil
	}
	item := (*list)[n-1]
	(*list)[n-1] = nil
	*list = (*list)[:n-1]
	return item
}

// uplink is every guest's Sender: the packet crosses the intra-farm hop
// to the gateway's containment engine.
func (f *Farm) uplink(pkt *netsim.Packet) {
	if f.linkDown {
		f.stats.LinkDrops++
		return
	}
	f.up.After(UplinkLatency, f.newHop(nil, pkt).fire)
}

// infected is every guest's OnInfected hook.
func (f *Farm) infected(in *guest.Instance) {
	f.stats.Infections++
	if f.Cfg.OnInfected != nil {
		f.Cfg.OnInfected(f.K.Now(), in)
	}
}

// hop is one packet in flight on the intra-farm link: the kernel event
// that holds it until the link latency has passed. to is the receiving
// VM for the downlink direction, nil for the uplink. fire is hp.arrive,
// bound once for the struct's lifetime; the struct returns to the
// farm's free list when it fires.
type hop struct {
	f    *Farm
	to   *FarmVM
	pkt  *netsim.Packet
	fire sim.Event

	// own and buf are storage for the copy of an ephemeral packet, which
	// its sender reuses as soon as it has handed it over. The copy stays
	// marked Ephemeral: it is only good until the hop lands.
	own netsim.Packet
	buf []byte
}

// newHop puts pkt on the link toward fv (nil: toward the gateway).
func (f *Farm) newHop(fv *FarmVM, pkt *netsim.Packet) *hop {
	hp := pop(&f.freeHops)
	if hp == nil {
		hp = &hop{f: f}
		hp.fire = hp.arrive
	}
	hp.to, hp.pkt = fv, pkt
	if pkt.Ephemeral {
		hp.own = *pkt
		if pkt.Payload != nil {
			hp.buf = append(hp.buf[:0], pkt.Payload...)
			hp.own.Payload = hp.buf
		}
		hp.pkt = &hp.own
	}
	return hp
}

func (hp *hop) arrive(now sim.Time) {
	f, fv := hp.f, hp.to
	switch {
	case fv == nil:
		if f.gw != nil {
			f.gw.HandleOutbound(now, hp.pkt)
		}
	case !fv.dead && fv.VM.State == vmm.StateRunning:
		fv.Guest.HandlePacket(now, hp.pkt)
	}
	hp.to, hp.pkt = nil, nil
	f.freeHops = append(f.freeHops, hp)
	if fv != nil {
		if fv.arriving--; fv.dead && fv.arriving == 0 {
			f.freeVMs = append(f.freeVMs, fv)
		}
	}
}

// FarmVM adapts a (VM, guest) pair to gateway.VMRef. It is valid until
// Destroy: the farm reuses the struct for a later clone.
type FarmVM struct {
	VM    *vmm.VM
	Host  *vmm.VMHost
	Guest *guest.Instance

	farm *Farm
	// dead is set by Destroy; arriving counts downlink hops still in
	// flight toward this VM. A destroyed FarmVM joins the free list only
	// once the last of them has landed (and been dropped), so no hop can
	// find a later tenant behind the pointer it carries.
	dead     bool
	arriving int
}

// Deliver implements gateway.VMRef: the packet crosses the intra-farm
// hop, then the guest handles it (if the VM is still running by then).
func (fv *FarmVM) Deliver(now sim.Time, pkt *netsim.Packet) {
	if fv.dead || fv.VM.State != vmm.StateRunning {
		return
	}
	f := fv.farm
	if f.linkDown {
		f.stats.LinkDrops++
		return
	}
	fv.arriving++
	f.down.After(DownlinkLatency, f.newHop(fv, pkt).fire)
}

// Destroy implements gateway.VMRef: stop the guest and reclaim the VM.
func (fv *FarmVM) Destroy(_ sim.Time) {
	if fv.dead {
		return
	}
	fv.dead = true
	f, ip := fv.farm, fv.VM.IP
	fv.Guest.Stop()
	fv.Host.Destroy(fv.VM.ID)
	// Another VM may already hold this address (a late clone destroyed
	// after its binding was recycled and re-bound); only unregister if
	// the entry is ours.
	if cur, ok := f.byAddr[ip]; ok && cur == fv {
		delete(f.byAddr, ip)
	}
	f.stats.Reclaims++
	f.stats.LiveVMs--
	if fv.arriving == 0 {
		f.freeVMs = append(f.freeVMs, fv)
	}
}

// ServersNeeded is the provisioning arithmetic the paper's scalability
// argument rests on: how many servers of memBytes cover peakVMs
// concurrent VMs at the measured per-VM footprint (private bytes +
// hypervisor overhead), with the reference image charged once per
// server.
func ServersNeeded(peakVMs int, perVMFootprint, imageBytes, memBytes uint64) int {
	if peakVMs <= 0 {
		return 0
	}
	usable := int64(memBytes) - int64(imageBytes)
	if usable <= 0 || perVMFootprint == 0 {
		return -1 // image alone does not fit, or degenerate input
	}
	perServer := usable / int64(perVMFootprint)
	if perServer <= 0 {
		return -1
	}
	n := (int64(peakVMs) + perServer - 1) / perServer
	return int(n)
}
