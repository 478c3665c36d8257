package guest

import (
	"time"

	"potemkin/internal/flatindex"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
)

// TCP fidelity: honeypots must look indistinguishable from real hosts
// to a scanner that completes handshakes, so each guest runs a
// connection table with a real (if compact) TCP state machine —
// SYN-cookieless SYN_RCVD, sequence/ack tracking, graceful FIN
// teardown, RST on bad state, bounded table with oldest-idle eviction.
//
// Two exploit deliveries are supported, mirroring 2003-2005 malware:
//
//   - single-packet ("Slammer-style" over UDP, or TCP fast-path where
//     the probe carries SYN|PSH+payload in one segment — the worm
//     simulator's abstraction of a completed dialogue), and
//   - full-dialogue ("Blaster-style"): SYN, SYN-ACK, ACK+payload. The
//     client side of that dialogue is what infected guests use when
//     they attack, so reflected VMs observe a genuine handshake.

// tcpState is a server- or client-side connection state.
type tcpState uint8

const (
	tcpSynRcvd tcpState = iota // server: SYN seen, SYN-ACK sent
	tcpEstablished
	tcpFinWait // we sent FIN, awaiting final ACK
	// Client-side states for outbound exploit dialogues.
	tcpSynSent
)

func (s tcpState) String() string {
	switch s {
	case tcpSynRcvd:
		return "syn-rcvd"
	case tcpEstablished:
		return "established"
	case tcpFinWait:
		return "fin-wait"
	case tcpSynSent:
		return "syn-sent"
	default:
		return "unknown"
	}
}

// tcpConn is one tracked connection: 48 bytes, widest fields first so
// the flags pack into what would otherwise be padding. It lives in its
// table's slab, which insert may move, so a *tcpConn is good only until
// the table's next insert: hold its key across one, not the pointer.
type tcpConn struct {
	key        netsim.FlowKey // remote->local for server conns, local->remote for client conns
	lastActive sim.Time

	// self is the conn's own handle, its slab position plus one; older
	// and newer are the idle-order links (see connTable), handles too,
	// 0 at either end. A free conn chains through newer.
	self, older, newer uint16

	iss    uint32 // our initial sequence number
	sndNxt uint32 // next sequence we will send
	rcvNxt uint32 // next sequence we expect
	state  tcpState
	client bool // we initiated (exploit dialogue or canary probe)
	canary bool // fingerprinting probe: SYN-ACK means the world answered
}

// maxConns bounds each guest's connection table, like a small server's
// backlog; the oldest-idle connection is evicted when full.
const maxConns = 256

// connHandleBits is the width of a connection's handle, 1 to maxConns,
// in its index slot: the index keeps a hash tag in the 7 bits above. The
// constant below overflows, and the package fails to build, if maxConns
// outgrows it.
const (
	connHandleBits = 9
	_              = uint(1<<connHandleBits - 1 - maxConns)
)

// connTable is the guest's connection state, keyed by the REMOTE
// endpoint's flow key as seen in inbound packets (src=remote,
// dst=local) for connections it accepted, and by its own outbound key
// for the client connections it opened.
//
// The connections sit in one slab, grown by append up to maxConns and
// kept when the table is reset for another guest, and are named by
// handle: a slab position plus one, in 16 bits. Live connections are
// indexed by key in a flatindex.Index of handles (2-byte slots, at most
// three quarters of them full, each tagged with 7 bits of its key's
// hash, so a probe loads only the connection it finds) and also sit on
// a list in lastActive order: every write of lastActive goes through
// touch, which moves the connection to the newest end, so the
// oldest-idle connection is the list's head, found in O(1), and
// connections idle equally long leave in the order they were last
// touched. Closed connections are kept for the next open. clients counts
// the live client connections, so a guest that has opened none skips
// looking for one.
type connTable struct {
	slab                 connSlab
	index                flatindex.Index[netsim.FlowKey, uint16, connSlab]
	oldest, newest, free uint16
	clients              uint16
}

// connSlab is the table's connections, which is what the index reads:
// a handle is a position plus one, and its key the connection's.
type connSlab []tcpConn

func (s connSlab) Key(h uint16) netsim.FlowKey { return s[h-1].key }

func (connSlab) HandleBits() int { return connHandleBits }

func (connSlab) Hash(k netsim.FlowKey) uint64 {
	return uint64(k.Src)<<32 ^ uint64(k.Dst) ^
		(uint64(k.SrcPort)<<24|uint64(k.DstPort)<<8|uint64(k.Proto))*0x9e3779b97f4a7c15
}

// at returns the connection with handle h, which must not be 0.
func (ct *connTable) at(h uint16) *tcpConn { return &ct.slab[h-1] }

func (ct *connTable) lookup(key netsim.FlowKey) *tcpConn {
	if h := ct.index.Get(ct.slab, key); h != 0 {
		return ct.at(h)
	}
	return nil
}

// lookupClient returns the client connection an inbound packet with
// flow key answers, if there is one.
func (ct *connTable) lookupClient(key netsim.FlowKey) *tcpConn {
	if ct.clients == 0 {
		return nil
	}
	if c := ct.lookup(key.Reverse()); c != nil && c.client {
		return c
	}
	return nil
}

// insert opens a connection with proto's fields. One under the same key
// is replaced (a reused ephemeral port: the new dialogue replaces the
// old); otherwise, when the table is full, the oldest-idle one is
// evicted.
func (ct *connTable) insert(now sim.Time, proto tcpConn) *tcpConn {
	if old := ct.lookup(proto.key); old != nil {
		ct.remove(old)
	}
	if ct.len() >= maxConns {
		ct.remove(ct.at(ct.oldest))
	}
	h := ct.free
	if h != 0 {
		ct.free = ct.at(h).newer
	} else {
		ct.slab = append(ct.slab, tcpConn{})
		h = uint16(len(ct.slab))
	}
	c := ct.at(h)
	*c = proto
	c.self = h
	ct.index.Insert(ct.slab, h)
	if c.client {
		ct.clients++
	}
	ct.pushNewest(c, now)
	return c
}

func (ct *connTable) pushNewest(c *tcpConn, now sim.Time) {
	c.lastActive = now
	c.older, c.newer = ct.newest, 0
	if ct.newest != 0 {
		ct.at(ct.newest).newer = c.self
	} else {
		ct.oldest = c.self
	}
	ct.newest = c.self
}

func (ct *connTable) unlink(c *tcpConn) {
	if c.older != 0 {
		ct.at(c.older).newer = c.newer
	} else {
		ct.oldest = c.newer
	}
	if c.newer != 0 {
		ct.at(c.newer).older = c.older
	} else {
		ct.newest = c.older
	}
}

// touch records activity on c.
func (ct *connTable) touch(c *tcpConn, now sim.Time) {
	if c.self == ct.newest {
		c.lastActive = now
		return
	}
	ct.unlink(c)
	ct.pushNewest(c, now)
}

func (ct *connTable) remove(c *tcpConn) {
	ct.index.Delete(ct.slab, c.key)
	if c.client {
		ct.clients--
	}
	ct.unlink(c)
	c.older, c.newer = 0, ct.free
	ct.free = c.self
}

func (ct *connTable) len() int { return ct.index.Len() }

// reset closes every connection (the table is about to serve another
// guest), keeping the slab and the index's slots for reuse.
func (ct *connTable) reset() {
	ct.slab = ct.slab[:0]
	ct.oldest, ct.newest, ct.free = 0, 0, 0
	ct.index.Clear()
	ct.clients = 0
}

// connIdleTimeout reaps half-open and abandoned connections, like a
// server's keepalive/SYN-timeout machinery.
const connIdleTimeout = 2 * time.Minute

// pruneIdle drops connections idle past the timeout.
func (ct *connTable) pruneIdle(now sim.Time) int {
	n := 0
	for ct.oldest != 0 {
		c := ct.at(ct.oldest)
		if now.Sub(c.lastActive) < connIdleTimeout {
			break
		}
		ct.remove(c)
		n++
	}
	return n
}

// handleTCP is the guest's TCP input processing.
func (in *Instance) handleTCP(pkt *netsim.Packet) {
	now := in.K.Now()
	key := pkt.Flow()

	// Reap abandoned connections every so often (cheap amortization).
	in.tcpSeen++
	if in.tcpSeen%64 == 0 {
		in.conns.pruneIdle(now)
	}

	// Client-side dialogue: is this a reply to a connection we opened?
	if c := in.conns.lookupClient(key); c != nil {
		in.handleClientTCP(now, c, pkt)
		return
	}

	open := in.Profile.openPort(netsim.ProtoTCP, pkt.DstPort)
	c := in.conns.lookup(key)

	switch {
	case pkt.Flags&netsim.FlagRST != 0:
		if c != nil {
			in.conns.remove(c)
		}
		return

	case pkt.Flags&netsim.FlagSYN != 0 && pkt.Flags&netsim.FlagACK == 0:
		if !open {
			in.sendRST(pkt)
			return
		}
		if c == nil {
			iss := uint32(in.rng.Uint64()) | 1
			c = in.conns.insert(now, tcpConn{
				key:    key,
				state:  tcpSynRcvd,
				iss:    iss,
				sndNxt: iss + 1,
				rcvNxt: pkt.Seq + 1,
			})
			in.stats.ConnsAccepted++
		}
		// SYN (or retransmitted SYN): (re)send SYN-ACK.
		in.conns.touch(c, now)
		in.sendSegment(pkt.Src, pkt.DstPort, pkt.SrcPort,
			c.iss, c.rcvNxt, netsim.FlagSYN|netsim.FlagACK, nil)

		// Fast-path exploit: a lone SYN|PSH probe carrying payload is
		// the worm simulator's single-packet abstraction.
		if len(pkt.Payload) > 0 {
			c.state = tcpEstablished
			in.checkExploit(netsim.ProtoTCP, pkt)
			in.serveApp(c, pkt)
		}

	case c == nil:
		// Stray non-SYN segment: hosts answer with RST (unless it is a
		// bare ACK to a closed port, which also gets RST).
		if open || pkt.Flags&netsim.FlagACK != 0 {
			in.sendRST(pkt)
		}

	default:
		in.conns.touch(c, now)
		switch c.state {
		case tcpSynRcvd:
			if pkt.Flags&netsim.FlagACK != 0 && pkt.Ack == c.sndNxt {
				c.state = tcpEstablished
				in.stats.ConnsEstablished++
			}
			fallthrough
		case tcpEstablished:
			if len(pkt.Payload) > 0 && pkt.Seq == c.rcvNxt {
				c.rcvNxt += uint32(len(pkt.Payload))
				in.sendSegment(pkt.Src, pkt.DstPort, pkt.SrcPort,
					c.sndNxt, c.rcvNxt, netsim.FlagACK, nil)
				in.checkExploit(netsim.ProtoTCP, pkt)
				in.serveApp(c, pkt)
			}
			if pkt.Flags&netsim.FlagFIN != 0 {
				// Passive close: ACK the FIN and send our own.
				c.rcvNxt++
				in.sendSegment(pkt.Src, pkt.DstPort, pkt.SrcPort,
					c.sndNxt, c.rcvNxt, netsim.FlagFIN|netsim.FlagACK, nil)
				c.sndNxt++
				c.state = tcpFinWait
			}
		case tcpFinWait:
			if pkt.Flags&netsim.FlagACK != 0 && pkt.Ack == c.sndNxt {
				in.conns.remove(c)
				in.stats.ConnsClosed++
			}
		}
	}
}

// handleClientTCP advances an exploit dialogue this guest initiated.
func (in *Instance) handleClientTCP(now sim.Time, c *tcpConn, pkt *netsim.Packet) {
	in.conns.touch(c, now)
	switch {
	case pkt.Flags&netsim.FlagRST != 0:
		in.conns.remove(c)
	case c.state == tcpSynSent && pkt.Flags&(netsim.FlagSYN|netsim.FlagACK) == netsim.FlagSYN|netsim.FlagACK:
		if c.canary {
			// A canary got its SYN-ACK: something answered, so the
			// guest's honeypot suspicion resets. No payload follows.
			c.rcvNxt = pkt.Seq + 1
			in.canaryAnswered(c)
			return
		}
		// Handshake completes: ACK and fire the exploit payload.
		c.state = tcpEstablished
		c.rcvNxt = pkt.Seq + 1
		payload := in.exploit
		in.sendSegment(pkt.Src, c.key.SrcPort, c.key.DstPort,
			c.sndNxt, c.rcvNxt, netsim.FlagACK|netsim.FlagPSH, payload)
		c.sndNxt += uint32(len(payload))
		in.stats.ExploitsSent++
		// Dialogue done; drop our state (fire and forget, like the
		// malware it models).
		in.conns.remove(c)
	}
}

// openExploitDialogue begins a full client-side handshake toward dst.
func (in *Instance) openExploitDialogue(dst netsim.Addr, dstPort uint16) {
	now := in.K.Now()
	srcPort := in.ephemeralPort()
	iss := uint32(in.rng.Uint64()) | 1
	in.conns.insert(now, tcpConn{
		key: netsim.FlowKey{
			Src: in.IP, Dst: dst, SrcPort: srcPort, DstPort: dstPort,
			Proto: netsim.ProtoTCP,
		},
		state:  tcpSynSent,
		iss:    iss,
		sndNxt: iss + 1,
		client: true,
	})
	in.sendSegment(dst, srcPort, dstPort, iss, 0, netsim.FlagSYN, nil)
}

// sendSegment replies with one TCP segment from this guest, stamped
// with the profile's stack fingerprint.
func (in *Instance) sendSegment(dst netsim.Addr, srcPort, dstPort uint16,
	seq, ack uint32, flags byte, payload []byte) {
	in.reply(in.outgoing(netsim.Packet{
		Dst: dst, Proto: netsim.ProtoTCP, TTL: in.Profile.ttl(),
		SrcPort: srcPort, DstPort: dstPort,
		Seq: seq, Ack: ack, Flags: flags, Window: in.Profile.window(),
		Payload: payload,
	}))
}

// sendRST answers an unacceptable segment.
func (in *Instance) sendRST(pkt *netsim.Packet) {
	ack := pkt.Seq + uint32(len(pkt.Payload))
	if pkt.Flags&netsim.FlagSYN != 0 {
		ack++
	}
	in.sendSegment(pkt.Src, pkt.DstPort, pkt.SrcPort, pkt.Ack, ack,
		netsim.FlagRST|netsim.FlagACK, nil)
}

// Conns returns the current connection-table size (tests, stats).
func (in *Instance) Conns() int { return in.conns.len() }
