// Package guest models what runs inside a honeypot VM: network services
// that respond with protocol fidelity (SYN-ACK, RST, echo replies), a
// memory workload that dirties pages over time (driving delta
// virtualization's CoW costs), and an infection state machine — a
// vulnerable service that, on receiving an exploit payload, turns the VM
// into a scanner, exactly the behaviour the containment experiments need
// to observe and contain.
//
// No real malware is involved: "exploit" is a payload prefix match and
// "infection" is a state flip plus behavioural change (page-dirtying
// burst, outbound scanning, optional second-stage fetch).
package guest

import (
	"encoding/binary"
	"slices"
	"strconv"
	"time"

	"potemkin/internal/free"
	"potemkin/internal/mem"
	"potemkin/internal/metrics"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/vmm"
)

// AppKind selects an application-layer responder for a service.
type AppKind int

// Application responders. Each parses just enough of the request to
// answer plausibly — the fidelity a scanner's banner-grab sees.
const (
	AppNone AppKind = iota
	AppHTTP
	AppSMB
	AppSMTP
	AppSSH
)

// ServiceSpec describes one listening service on a guest.
type ServiceSpec struct {
	Port       uint16
	Proto      netsim.Proto
	Vulnerable bool
	// ExploitSig is the payload prefix that compromises a vulnerable
	// service. Ignored unless Vulnerable.
	ExploitSig []byte
	// App selects the application-layer responder for non-exploit
	// payloads on this service.
	App AppKind
}

// Profile is a guest personality: its services, its memory behaviour,
// and what it does once infected.
type Profile struct {
	Name     string
	Services []ServiceSpec

	// Stack fingerprint: the TTL and TCP window a scanner's passive
	// OS-fingerprinting would check. Zero values default to 64/65535.
	TTL       byte
	TCPWindow uint16

	// Memory workload.
	InitialBurstPages   int     // pages dirtied immediately after start (process state)
	TouchRatePerSec     float64 // steady-state page-touch rate
	WorkingSetPages     int     // hot pages touches concentrate on
	WidePageProb        float64 // probability a touch lands outside the working set
	InfectionBurstPages int     // pages dirtied when the worm unpacks

	// Post-infection behaviour.
	ScanRatePerSec float64 // outbound probe rate once infected
	ScanDstPort    uint16  // port the worm targets
	ScanProto      netsim.Proto
	// FullDialogue makes TCP scans complete a real three-way handshake
	// before delivering the exploit (Blaster-style), instead of the
	// single-packet abstraction.
	FullDialogue bool
	// PayloadServer, if nonzero, is a third-party host the infected
	// guest contacts for its second stage (multi-stage malware; E8).
	PayloadServer netsim.Addr
	PayloadPort   uint16
	// PayloadHost, if set, is resolved via DNS before the second-stage
	// fetch (most real droppers look a name up first); it takes
	// precedence over PayloadServer. The lookup goes to DNSServer,
	// which the gateway rewrites to its safe resolver.
	PayloadHost string
	DNSServer   netsim.Addr

	// Honeypot fingerprinting: an infected guest that suspects it is
	// jailed probes "canary" destinations and counts the silences. Real
	// internet hosts answer some canaries; a contained honeyfarm
	// answers none (drop-all) or answers with its own impersonations
	// (internal reflection). CanaryRatePerSec > 0 enables the check:
	// each canary is a TCP SYN to a picked address on CanaryPort; if no
	// SYN-ACK arrives within CanaryTimeoutMS the guest's suspicion
	// rises, and at FingerprintThreshold consecutive silences it
	// decides it is in a honeypot and goes quiet — no more scans,
	// beacons, or canaries. Deception survival time is the number of
	// attacker actions executed before that happens.
	CanaryRatePerSec     float64
	CanaryPort           uint16 // default 80
	CanaryTimeoutMS      int    // default 2000
	FingerprintThreshold int    // default 3 consecutive unanswered canaries

	// Command-and-control: an infected guest beacons C2Server on
	// C2Port every BeaconPeriodMS (defaults 443/30000). Beacons are
	// egress the containment policy must score: every one that leaves
	// is a leak, every one reflected or dropped is containment working.
	C2Server       netsim.Addr
	C2Port         uint16
	BeaconPeriodMS int
}

// ttl returns the profile's IP TTL fingerprint.
func (p *Profile) ttl() byte {
	if p.TTL == 0 {
		return 64
	}
	return p.TTL
}

// window returns the profile's TCP window fingerprint.
func (p *Profile) window() uint16 {
	if p.TCPWindow == 0 {
		return 65535
	}
	return p.TCPWindow
}

// canaryPort returns the port fingerprinting canaries probe.
func (p *Profile) canaryPort() uint16 {
	if p.CanaryPort == 0 {
		return 80
	}
	return p.CanaryPort
}

// canaryTimeout returns how long a canary waits for its SYN-ACK.
func (p *Profile) canaryTimeout() time.Duration {
	if p.CanaryTimeoutMS <= 0 {
		return 2 * time.Second
	}
	return time.Duration(p.CanaryTimeoutMS) * time.Millisecond
}

// fingerprintThreshold returns the consecutive-silence count at which
// the guest concludes it is jailed.
func (p *Profile) fingerprintThreshold() int {
	if p.FingerprintThreshold <= 0 {
		return 3
	}
	return p.FingerprintThreshold
}

// c2Port returns the beacon destination port.
func (p *Profile) c2Port() uint16 {
	if p.C2Port == 0 {
		return 443
	}
	return p.C2Port
}

// beaconPeriod returns the C2 beacon interval.
func (p *Profile) beaconPeriod() time.Duration {
	if p.BeaconPeriodMS <= 0 {
		return 30 * time.Second
	}
	return time.Duration(p.BeaconPeriodMS) * time.Millisecond
}

// service returns the spec listening on (proto, port), or nil.
func (p *Profile) service(proto netsim.Proto, port uint16) *ServiceSpec {
	for i := range p.Services {
		if p.Services[i].Proto == proto && p.Services[i].Port == port {
			return &p.Services[i]
		}
	}
	return nil
}

// vulnerable returns the vulnerable service spec, if any.
func (p *Profile) vulnerable() *ServiceSpec {
	for i := range p.Services {
		if p.Services[i].Vulnerable {
			return &p.Services[i]
		}
	}
	return nil
}

// openPort reports whether the guest listens on (proto, port).
func (p *Profile) openPort(proto netsim.Proto, port uint16) bool {
	for i := range p.Services {
		if p.Services[i].Proto == proto && p.Services[i].Port == port {
			return true
		}
	}
	return false
}

// ExploitPayload builds the wire payload that compromises profile p's
// vulnerable service, tagging it with the sender's infection generation
// so chain depth is measurable end to end. It returns nil if p has no
// vulnerability.
func (p *Profile) ExploitPayload(generation int) []byte {
	return p.appendExploit(nil, generation)
}

// appendExploit appends ExploitPayload(generation) to dst, growing it
// at most once. With no vulnerability it returns nil.
func (p *Profile) appendExploit(dst []byte, generation int) []byte {
	v := p.vulnerable()
	if v == nil {
		return nil
	}
	if generation < 0 || generation > 255 {
		generation = 255
	}
	dst = slices.Grow(dst, len(v.ExploitSig)+1)
	dst = append(dst, v.ExploitSig...)
	return append(dst, byte(generation))
}

// parseGeneration extracts the generation tag from an exploit payload.
func parseGeneration(sig, payload []byte) int {
	if len(payload) > len(sig) {
		return int(payload[len(sig)])
	}
	return 0
}

// Sender transmits a packet originated by the guest. The farm wires this
// to the host's uplink toward the gateway. Every packet the guest sends
// is marked Ephemeral: it is the guest's own storage, rewritten by its
// next send, and so may its payload be (or bytes every guest shares), so
// a sender that keeps one past the call must Clone it.
type Sender func(pkt *netsim.Packet)

// TargetPicker chooses a scan destination for an infected guest.
type TargetPicker func(r *sim.RNG) netsim.Addr

// Hooks are observation points the farm and experiments attach to.
type Hooks struct {
	// OnInfected fires when the guest transitions to infected.
	OnInfected func(in *Instance)
	// Metrics is the state the farm's instances share (see Instruments).
	// Nil gives the instance a private one.
	Metrics *Instruments
}

// Instruments is what every instance one farm runs shares: the
// deception histogram, the counters of the instances that have stopped,
// and the stopped instances themselves, which New reuses. The zero
// Instruments is ready. Like everything under one sim kernel it is
// single-threaded.
type Instruments struct {
	Deception metrics.Histogram // guest_deception_actions: attacker actions executed before going quiet

	// Retired sums the final Stats of every stopped instance, so the
	// farm's guest totals stay monotone across recycling.
	Retired Stats
	// free are stopped instances with no kernel event left in flight,
	// connection table and bound callbacks attached; the gateway's scrub
	// trims it, through the farm (EachPool).
	free free.Pool[*Instance]
}

// EachPool visits the instances' free list, with the multiple of its
// largest period's demand that a trim keeps.
func (m *Instruments) EachPool(fn func(name string, p free.Trimmer, keep int)) {
	fn("guest.instances", &m.free, 1)
}

// Stats counts guest activity, the only place it is counted; a field's
// farm-wide total is published as the series its metric tag names.
type Stats struct {
	PacketsIn        uint64 `metric:"guest_packets_in_total"`
	RepliesOut       uint64 `metric:"guest_replies_out_total"`
	ScansOut         uint64 `metric:"guest_scans_out_total"`
	PagesDirty       uint64 `metric:"guest_pages_dirty_total"`       // page-touch operations issued
	ExploitHits      uint64 `metric:"guest_exploit_hits_total"`      // exploit payloads received while already infected
	ConnsAccepted    uint64 `metric:"guest_conns_accepted_total"`    // inbound SYNs that created connection state
	ConnsEstablished uint64 `metric:"guest_conns_established_total"` // handshakes completed by the remote
	ConnsClosed      uint64 `metric:"guest_conns_closed_total"`      // graceful FIN teardowns
	ExploitsSent     uint64 `metric:"guest_exploits_sent_total"`     // client-side dialogues that delivered payload
	AppResponses     uint64 `metric:"guest_app_responses_total"`     // application-layer responses served
	DNSQueries       uint64 `metric:"guest_dns_queries_total"`       // lookups issued (second-stage resolution)
	DNSResponses     uint64 `metric:"guest_dns_responses_total"`     // answers consumed
	Stage2Fetches    uint64 `metric:"guest_stage2_fetches_total"`    // second-stage fetch connections opened
	CanariesOut      uint64 `metric:"guest_canaries_total"`          // fingerprinting probes issued
	BeaconsOut       uint64 `metric:"guest_beacons_total"`           // C2 beacons issued
	Fingerprinted    uint64 `metric:"guest_fingerprints_total"`      // guests that concluded they are jailed and went quiet
}

// Add accumulates src into s, field by field.
func (s *Stats) Add(src *Stats) {
	s.PacketsIn += src.PacketsIn
	s.RepliesOut += src.RepliesOut
	s.ScansOut += src.ScansOut
	s.PagesDirty += src.PagesDirty
	s.ExploitHits += src.ExploitHits
	s.ConnsAccepted += src.ConnsAccepted
	s.ConnsEstablished += src.ConnsEstablished
	s.ConnsClosed += src.ConnsClosed
	s.ExploitsSent += src.ExploitsSent
	s.AppResponses += src.AppResponses
	s.DNSQueries += src.DNSQueries
	s.DNSResponses += src.DNSResponses
	s.Stage2Fetches += src.Stage2Fetches
	s.CanariesOut += src.CanariesOut
	s.BeaconsOut += src.BeaconsOut
	s.Fingerprinted += src.Fingerprinted
}

// Instance is one running guest bound to a VM. It is valid until Stop:
// a stopped instance keeps its final state only until New hands the
// struct to the next guest of the same Instruments, and its VM only
// until it is parked for that, so read what you need (Stats, Infected,
// Generation, VM) before stopping it, and stop it no later than its VM
// is destroyed — the VM struct is reused the same way.
type Instance struct {
	K       *sim.Kernel
	VM      *vmm.VM
	Profile *Profile
	IP      netsim.Addr

	Infected   bool
	InfectedAt sim.Time
	// Generation is the infection chain depth: 0 for never-infected, 1
	// for guests hit by the original attacker, 2 for guests hit by a
	// generation-1 guest, and so on.
	Generation int

	send    Sender
	pick    TargetPicker
	hooks   Hooks
	inst    *Instruments
	rng     sim.RNG
	stats   Stats
	conns   connTable
	tcpSeen uint64

	// seg is the packet being sent (see outgoing), and exploit the payload
	// the infected guest's attacks carry, built once on infection; both
	// keep their storage when the struct is reused.
	seg     netsim.Packet
	exploit []byte

	// The periodic processes' kernel callbacks, bound once for the
	// struct's lifetime so that scheduling the next one allocates
	// nothing, and the number of the instance's events (these and canary
	// timeouts) still in the kernel's queue. A stopped instance joins
	// the free list only when that count reaches zero: its remaining
	// events fire as the no-ops they always were, and a reused struct
	// can never receive one a previous guest scheduled.
	onTouch, onScan, onCanary, onBeacon sim.Event
	events                              int

	// Fingerprinting state: consecutive unanswered canaries, the
	// attacker actions (scans, canaries, beacons) executed so far — the
	// deception survival clock — and (quiet, below) whether the guest
	// has concluded it is jailed.
	suspicion int
	actions   uint64

	// The narrow fields share one word, which keeps the struct in its
	// 480-byte size class (TestInstanceSize).
	stopped bool
	quiet   bool
	ipid    uint16
	// dnsPending is the outstanding second-stage lookup ID (0 = none).
	dnsPending uint16
}

// New binds a guest instance to a VM. send must be non-nil; pick may be
// nil if the profile never scans.
func New(k *sim.Kernel, vm *vmm.VM, profile *Profile, send Sender, pick TargetPicker, hooks Hooks) *Instance {
	if send == nil {
		panic("guest: nil sender")
	}
	inst := hooks.Metrics
	if inst == nil {
		inst = &Instruments{}
	}
	in, ok := inst.free.Get()
	if ok {
		in.conns.reset()
	} else {
		in = &Instance{}
		in.onTouch, in.onScan, in.onCanary, in.onBeacon = in.touchTick, in.scanTick, in.canaryTick, in.beaconTick
	}
	*in = Instance{
		K: k, VM: vm, Profile: profile, IP: vm.IP,
		send: send, pick: pick, hooks: hooks, inst: inst,
		conns: in.conns, exploit: in.exploit[:0],
		onTouch: in.onTouch, onScan: in.onScan, onCanary: in.onCanary, onBeacon: in.onBeacon,
	}
	in.seedRNG()
	return in
}

// guestStream is the name hash of the kernel stream guests fork from.
var guestStream = fnv1a([]byte("guest"))

// fnv1a is the hash sim derives sub-stream seeds from names with.
func fnv1a(name []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, c := range name {
		h ^= uint64(c)
		h *= 0x100000001b3
	}
	return h
}

// seedRNG seeds in.rng exactly as k.Stream("guest").Fork(ip.String())
// would, in place: sim.NewRNG inlines, so neither stream is a heap
// object, and the dotted quad is hashed from a stack buffer.
func (in *Instance) seedRNG() {
	o := in.IP.Octets()
	var quad [15]byte
	name := quad[:0]
	for i, b := range o {
		if i > 0 {
			name = append(name, '.')
		}
		name = strconv.AppendUint(name, uint64(b), 10)
	}
	stream := sim.NewRNG(in.K.Seed() ^ guestStream)
	in.rng = *sim.NewRNG(stream.Uint64() ^ fnv1a(name))
}

// Stats returns a copy of the counters.
func (in *Instance) Stats() Stats { return in.stats }

// Start begins the guest's memory workload: an initial burst of dirty
// pages followed by a steady touch process.
func (in *Instance) Start() {
	in.touchBurst(in.Profile.InitialBurstPages)
	in.scheduleTouch()
}

// Stop halts background activity (the VM is being reclaimed) and gives
// the instance up for reuse; see Instance.
func (in *Instance) Stop() {
	if in.stopped {
		return
	}
	in.stopped = true
	in.inst.Retired.Add(&in.stats)
	in.retire()
}

// after schedules one of the instance's own events.
func (in *Instance) after(d time.Duration, ev sim.Event) {
	in.events++
	in.K.After(d, ev)
}

// fired accounts for one of the instance's events firing; every such
// event calls it first.
func (in *Instance) fired() {
	in.events--
	in.retire()
}

// retire frees the instance for reuse once it is stopped and the last
// of its events has fired, letting go of its VM and target picker
// first: the VM's host keeps the VM.
func (in *Instance) retire() {
	if in.stopped && in.events == 0 {
		in.VM, in.pick = nil, nil
		in.inst.free.Put(in)
	}
}

func (in *Instance) scheduleTouch() {
	if in.Profile.TouchRatePerSec <= 0 {
		return
	}
	in.after(time.Duration(in.rng.Exp(1e9/in.Profile.TouchRatePerSec)), in.onTouch)
}

func (in *Instance) touchTick(sim.Time) {
	in.fired()
	if in.stopped || in.VM.State == vmm.StateDead {
		return
	}
	if in.VM.State == vmm.StateRunning {
		in.touchPage()
	}
	in.scheduleTouch()
}

// pages returns the pages a touch picks from: the image's resident
// pages, and the working set among them.
func (in *Instance) pages() (resident, ws int) {
	resident = int(in.VM.Image.ResidentPages)
	ws = in.Profile.WorkingSetPages
	if ws <= 0 || ws > resident {
		ws = resident
	}
	return resident, ws
}

// burstChunk is how many touches a burst draws before it writes them:
// every builtin profile's bursts fit one chunk, and a longer burst
// sizes the page table once a chunk.
const burstChunk = 256

// touchBurst dirties n pages at once. It draws a chunk of touches
// first and writes them in one call, which sizes the page table for the
// chunk's pages, so that it grows at most once a chunk, and records
// each page's touches together. Drawing ahead leaves the guest's stream
// where touching one page at a time would.
func (in *Instance) touchBurst(n int) {
	resident, ws := in.pages()
	if resident == 0 {
		return
	}
	var chunk [burstChunk]mem.Touch
	for n > 0 {
		k := min(n, burstChunk)
		n -= k
		for i := range chunk[:k] {
			chunk[i] = in.nextTouch(resident, ws)
		}
		in.VM.WriteTouches(chunk[:k])
		in.stats.PagesDirty += uint64(k)
	}
}

func (in *Instance) touchPage() {
	if resident, ws := in.pages(); resident > 0 {
		in.write(in.nextTouch(resident, ws))
	}
}

// nextTouch draws a touch: a page, mostly in the working set, and the
// bytes written where in it.
func (in *Instance) nextTouch(resident, ws int) mem.Touch {
	var t mem.Touch
	if p := in.Profile.WidePageProb; p > 0 && in.rng.Bool(p) {
		t.VPN = uint64(in.rng.Intn(resident))
	} else {
		t.VPN = uint64(in.rng.Intn(ws))
	}
	t.Off = in.rng.Intn(mem.PageSize - 8)
	t.Val = in.rng.Uint64()
	return t
}

func (in *Instance) write(t mem.Touch) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], t.Val)
	in.VM.WriteMemory(t.VPN, t.Off, buf[:])
	in.stats.PagesDirty++
}
