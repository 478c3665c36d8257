package guest

import (
	"bytes"
	"time"

	"potemkin/internal/dns"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/vmm"
)

// HandlePacket processes an inbound packet addressed to this guest,
// emitting protocol-faithful replies and, on an exploit hit against a
// vulnerable service, transitioning to the infected state.
func (in *Instance) HandlePacket(now sim.Time, pkt *netsim.Packet) {
	in.stats.PacketsIn++
	switch pkt.Proto {
	case netsim.ProtoICMP:
		if pkt.ICMPType == 8 { // echo request: reply, type 0
			in.reply(in.outgoing(netsim.Packet{Dst: pkt.Src, Proto: netsim.ProtoICMP, TTL: in.Profile.ttl()}))
		}
	case netsim.ProtoTCP:
		in.handleTCP(pkt)
	case netsim.ProtoUDP:
		in.handleUDP(pkt)
	}
}

func (in *Instance) handleUDP(pkt *netsim.Packet) {
	// Responses to our own stage-2 lookup come back from port 53.
	if pkt.SrcPort == 53 && len(pkt.Payload) > 0 {
		in.handleDNSResponse(pkt)
		return
	}
	if !in.Profile.openPort(netsim.ProtoUDP, pkt.DstPort) {
		// Port unreachable.
		in.reply(in.outgoing(netsim.Packet{
			Dst: pkt.Src, Proto: netsim.ProtoICMP, TTL: in.Profile.ttl(),
			ICMPType: 3, ICMPCode: 3,
		}))
		return
	}
	if len(pkt.Payload) > 0 {
		in.checkExploit(netsim.ProtoUDP, pkt)
		in.serveApp(nil, pkt)
	}
}

func (in *Instance) checkExploit(proto netsim.Proto, pkt *netsim.Packet) {
	v := in.Profile.vulnerable()
	if v == nil || v.Proto != proto || v.Port != pkt.DstPort {
		return
	}
	if len(pkt.Payload) < len(v.ExploitSig) || !bytes.HasPrefix(pkt.Payload, v.ExploitSig) {
		return
	}
	if in.Infected {
		in.stats.ExploitHits++
		return
	}
	in.becomeInfected(parseGeneration(v.ExploitSig, pkt.Payload) + 1)
}

func (in *Instance) becomeInfected(generation int) {
	in.Infected = true
	in.InfectedAt = in.K.Now()
	in.Generation = generation
	in.exploit = in.Profile.appendExploit(in.exploit[:0], generation)

	// The worm unpacks: a burst of dirty pages.
	in.touchBurst(in.Profile.InfectionBurstPages)

	// Multi-stage malware: fetch the second stage from a third party,
	// resolving a hostname first when the profile names one.
	switch {
	case in.Profile.PayloadHost != "":
		in.sendStage2Query()
	case in.Profile.PayloadServer != 0:
		in.fetchStage2(in.Profile.PayloadServer)
	}

	if in.hooks.OnInfected != nil {
		in.hooks.OnInfected(in)
	}
	in.scheduleScan()
	in.startDeception()
}

// ForceInfect compromises the guest directly (the worm simulator's
// patient zero, and tests).
func (in *Instance) ForceInfect(generation int) {
	if in.Infected {
		return
	}
	in.becomeInfected(generation)
}

func (in *Instance) scheduleScan() {
	if in.Profile.ScanRatePerSec <= 0 || in.pick == nil {
		return
	}
	in.after(time.Duration(in.rng.Exp(1e9/in.Profile.ScanRatePerSec)), in.onScan)
}

func (in *Instance) scanTick(sim.Time) {
	in.fired()
	// quiet only ever flips for fingerprinting profiles, so the
	// check cannot perturb existing non-fingerprinting runs.
	if in.stopped || !in.Infected || in.quiet || in.VM.State == vmm.StateDead {
		return
	}
	if in.VM.State == vmm.StateRunning {
		in.emitScan()
	}
	in.scheduleScan()
}

func (in *Instance) emitScan() {
	dst := in.pick(&in.rng)
	proto := in.Profile.ScanProto
	if proto == 0 {
		proto = netsim.ProtoTCP
	}
	in.stats.ScansOut++
	in.actions++
	switch {
	case proto == netsim.ProtoUDP:
		in.send(in.datagram(dst, in.ephemeralPort(), in.Profile.ScanDstPort, in.exploit))
	case in.Profile.FullDialogue:
		// Blaster-style: complete a real handshake before delivering the
		// payload (handleClientTCP finishes the dialogue when the
		// SYN-ACK comes back).
		in.openExploitDialogue(dst, in.Profile.ScanDstPort)
	default:
		// Single-packet abstraction of the completed dialogue.
		in.send(in.synPSH(dst, in.ephemeralPort(), in.Profile.ScanDstPort, uint32(in.rng.Uint64()), in.exploit))
	}
}

// sendStage2Query issues the DNS lookup for the payload host.
func (in *Instance) sendStage2Query() {
	server := in.Profile.DNSServer
	if server == 0 {
		server = netsim.MustParseAddr("198.41.0.4") // any external resolver; the gateway rewrites it
	}
	id := uint16(in.rng.Uint64()) | 1
	q, err := dns.NewQuery(id, in.Profile.PayloadHost)
	if err != nil {
		return
	}
	in.dnsPending = id
	in.stats.DNSQueries++
	in.reply(in.datagram(server, in.ephemeralPort(), 53, q))
}

// handleDNSResponse consumes the answer to a pending stage-2 lookup.
func (in *Instance) handleDNSResponse(pkt *netsim.Packet) {
	if in.dnsPending == 0 {
		return
	}
	m, err := dns.Parse(pkt.Payload)
	if err != nil || !m.Response() || m.ID != in.dnsPending {
		return
	}
	in.dnsPending = 0
	in.stats.DNSResponses++
	if len(m.Answers) == 0 {
		return
	}
	in.fetchStage2(m.Answers[0].Addr)
}

// fetchStage2 opens the second-stage download connection.
func (in *Instance) fetchStage2(server netsim.Addr) {
	port := in.Profile.PayloadPort
	if port == 0 {
		port = 80
	}
	in.stats.Stage2Fetches++
	in.reply(in.synPSH(server, in.ephemeralPort(), port, uint32(in.rng.Uint64()), stage2Request))
}

// stage2Request is the second-stage fetch's payload, shared read-only
// by every guest.
var stage2Request = []byte("GET /stage2")

func (in *Instance) ephemeralPort() uint16 {
	return uint16(49152 + in.rng.Intn(16384))
}

// The header of the SYN|PSH probes and UDP datagrams the guest sends,
// whatever its profile's stack: TTL 64 and, on a SYN, a window of 65535.
const (
	probeTTL    = 64
	probeWindow = 65535
)

// outgoing builds p, from this guest, in the instance's own storage and
// marks it Ephemeral. Every packet the guest sends is built here, so a
// send allocates no packet; the next send rewrites it (see Sender).
func (in *Instance) outgoing(p netsim.Packet) *netsim.Packet {
	in.seg = p
	in.seg.Src = in.IP
	in.seg.Ephemeral = true
	return &in.seg
}

// synPSH builds the single-packet abstraction of a dialogue: a SYN|PSH
// carrying payload.
func (in *Instance) synPSH(dst netsim.Addr, srcPort, dstPort uint16, seq uint32, payload []byte) *netsim.Packet {
	return in.outgoing(netsim.Packet{
		Dst: dst, Proto: netsim.ProtoTCP, TTL: probeTTL,
		SrcPort: srcPort, DstPort: dstPort, Seq: seq,
		Flags: netsim.FlagSYN | netsim.FlagPSH, Window: probeWindow, Payload: payload,
	})
}

// datagram builds a UDP datagram carrying payload.
func (in *Instance) datagram(dst netsim.Addr, srcPort, dstPort uint16, payload []byte) *netsim.Packet {
	return in.outgoing(netsim.Packet{
		Dst: dst, Proto: netsim.ProtoUDP, TTL: probeTTL,
		SrcPort: srcPort, DstPort: dstPort, Payload: payload,
	})
}

func (in *Instance) reply(pkt *netsim.Packet) {
	in.ipid++
	pkt.ID = in.ipid
	in.stats.RepliesOut++
	in.send(pkt)
}
