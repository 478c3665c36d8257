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

// tcpConn is one tracked connection: 32 bytes, so 64 of them fill a
// 2,048-byte size class. It lives in its table's slab, which insert may
// move, so a *tcpConn is good only until the table's next insert: hold
// its key across one, not the pointer.
type tcpConn struct {
	remote       netsim.Addr // the other end; ours is always the guest's IP
	rport, lport uint16      // the remote end's port and ours
	lastActive   sim.Time

	iss    uint32 // our initial sequence number
	sndNxt uint32 // next sequence we will send
	rcvNxt uint32 // next sequence we expect

	// flagsOlder and newer are the idle-order links (see connTable):
	// handles in their low connHandleBits bits, 0 at either end. A free
	// conn chains through newer. The bits above the older handle hold
	// the conn's state and its connClient and connCanary flags.
	flagsOlder, newer uint16
}

// The flags in the bits of flagsOlder above its handle.
const (
	connHandleMask = 1<<connHandleBits - 1
	connStateShift = connHandleBits // 2 bits of tcpState
	connStateMask  = 3 << connStateShift
	connClient     = 1 << (connHandleBits + 2) // we initiated (exploit dialogue or canary probe)
	connCanary     = 1 << (connHandleBits + 3) // fingerprinting probe: SYN-ACK means the world answered
	// These overflow, and the package fails to build, if the states
	// outgrow 2 bits or the flags 16 bits.
	_ = uint(connStateMask>>connStateShift - tcpSynSent)
	_ = uint(1<<16 - 1 - connCanary)
)

func (c *tcpConn) older() uint16 { return c.flagsOlder & connHandleMask }

func (c *tcpConn) setOlder(h uint16) { c.flagsOlder = c.flagsOlder&^connHandleMask | h }

func (c *tcpConn) state() tcpState { return tcpState(c.flagsOlder & connStateMask >> connStateShift) }

func (c *tcpConn) setState(s tcpState) {
	c.flagsOlder = c.flagsOlder&^connStateMask | uint16(s)<<connStateShift
}

func (c *tcpConn) client() bool { return c.flagsOlder&connClient != 0 }

func (c *tcpConn) canary() bool { return c.flagsOlder&connCanary != 0 }

func (c *tcpConn) key() connKey {
	return connKey{remote: c.remote, rport: c.rport, lport: c.lport, client: c.client()}
}

// connKey names a connection by its remote end, the two ports and which
// side opened it. The local address is always the guest's own IP and
// the protocol always TCP, so this is as exact as the 5-tuple: a server
// connection's is remote->local and a client connection's
// local->remote, and the two coincide only if local == remote.
type connKey struct {
	remote       netsim.Addr
	rport, lport uint16
	client       bool
}

// serverKey is the key of the connection this guest accepted that an
// inbound packet belongs to; clientKey that of the one it opened.
func serverKey(pkt *netsim.Packet) connKey {
	return connKey{remote: pkt.Src, rport: pkt.SrcPort, lport: pkt.DstPort}
}

func clientKey(pkt *netsim.Packet) connKey {
	return connKey{remote: pkt.Src, rport: pkt.SrcPort, lport: pkt.DstPort, client: true}
}

// maxConns bounds each guest's connection table, like a small server's
// backlog; the oldest-idle connection is evicted when full.
const maxConns = 256

// connHandleBits is the width of a connection's handle, 1 to maxConns,
// in its index slot and its links: the index keeps a hash tag in the 7
// bits above, a connection its flags. The constant below overflows, and
// the package fails to build, if maxConns outgrows it.
const (
	connHandleBits = 9
	_              = uint(1<<connHandleBits - 1 - maxConns)
)

// connTable is the guest's connection state, keyed by connKey.
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
	index                flatindex.Index[connKey, uint16, connSlab]
	oldest, newest, free uint16
	clients              uint16
}

// connSlab is the table's connections, which is what the index reads:
// a handle is a position plus one, and its key the connection's.
type connSlab []tcpConn

func (s connSlab) Key(h uint16) connKey { return s[h-1].key() }

func (connSlab) HandleBits() int { return connHandleBits }

// Hash packs the key; a client key hashes to the complement of the
// server key with the same ends.
func (connSlab) Hash(k connKey) uint64 {
	h := uint64(k.remote)<<32 | uint64(k.rport)<<16 | uint64(k.lport)
	if k.client {
		h = ^h
	}
	return h
}

// at returns the connection with handle h, which must not be 0.
func (ct *connTable) at(h uint16) *tcpConn { return &ct.slab[h-1] }

// lookup returns the handle of the connection under key and the
// connection, or 0 and nil.
func (ct *connTable) lookup(key connKey) (uint16, *tcpConn) {
	if h := ct.index.Get(ct.slab, key); h != 0 {
		return h, ct.at(h)
	}
	return 0, nil
}

// lookupClient is lookup for a client key, which skips the index while
// the guest has no client connection open.
func (ct *connTable) lookupClient(key connKey) (uint16, *tcpConn) {
	if ct.clients == 0 {
		return 0, nil
	}
	return ct.lookup(key)
}

// insert opens a connection under key, its sequence numbers zero and
// its state the zero tcpSynRcvd, and returns its handle and the
// connection. One under the same key is replaced (a reused ephemeral
// port: the new dialogue replaces the old); otherwise, when the table
// is full, the oldest-idle one is evicted.
func (ct *connTable) insert(now sim.Time, key connKey) (uint16, *tcpConn) {
	if old := ct.index.Get(ct.slab, key); old != 0 {
		ct.remove(old)
	}
	if ct.len() >= maxConns {
		ct.remove(ct.oldest)
	}
	h := ct.free
	if h != 0 {
		ct.free = ct.at(h).newer
	} else {
		ct.slab = append(ct.slab, tcpConn{})
		h = uint16(len(ct.slab))
	}
	c := ct.at(h)
	*c = tcpConn{remote: key.remote, rport: key.rport, lport: key.lport}
	if key.client {
		c.flagsOlder = connClient
		ct.clients++
	}
	ct.index.Insert(ct.slab, h)
	ct.pushNewest(h, c, now)
	return h, c
}

func (ct *connTable) pushNewest(h uint16, c *tcpConn, now sim.Time) {
	c.lastActive = now
	c.setOlder(ct.newest)
	c.newer = 0
	if ct.newest != 0 {
		ct.at(ct.newest).newer = h
	} else {
		ct.oldest = h
	}
	ct.newest = h
}

func (ct *connTable) unlink(c *tcpConn) {
	older := c.older()
	if older != 0 {
		ct.at(older).newer = c.newer
	} else {
		ct.oldest = c.newer
	}
	if c.newer != 0 {
		ct.at(c.newer).setOlder(older)
	} else {
		ct.newest = older
	}
}

// touch records activity on the connection with handle h.
func (ct *connTable) touch(h uint16, now sim.Time) {
	c := ct.at(h)
	if h == ct.newest {
		c.lastActive = now
		return
	}
	ct.unlink(c)
	ct.pushNewest(h, c, now)
}

// remove closes the connection with handle h.
func (ct *connTable) remove(h uint16) {
	c := ct.at(h)
	ct.index.Delete(ct.slab, c.key())
	if c.client() {
		ct.clients--
	}
	ct.unlink(c)
	c.flagsOlder, c.newer = 0, ct.free
	ct.free = h
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
		if now.Sub(ct.at(ct.oldest).lastActive) < connIdleTimeout {
			break
		}
		ct.remove(ct.oldest)
		n++
	}
	return n
}

// handleTCP is the guest's TCP input processing.
func (in *Instance) handleTCP(pkt *netsim.Packet) {
	now := in.K.Now()

	// Reap abandoned connections every so often (cheap amortization).
	in.tcpSeen++
	if in.tcpSeen%64 == 0 {
		in.conns.pruneIdle(now)
	}

	// Client-side dialogue: is this a reply to a connection we opened?
	if h, c := in.conns.lookupClient(clientKey(pkt)); c != nil {
		in.handleClientTCP(now, h, c, pkt)
		return
	}

	open := in.Profile.openPort(netsim.ProtoTCP, pkt.DstPort)
	h, c := in.conns.lookup(serverKey(pkt))

	switch {
	case pkt.Flags&netsim.FlagRST != 0:
		if c != nil {
			in.conns.remove(h)
		}
		return

	case pkt.Flags&netsim.FlagSYN != 0 && pkt.Flags&netsim.FlagACK == 0:
		if !open {
			in.sendRST(pkt)
			return
		}
		if c == nil {
			iss := uint32(in.rng.Uint64()) | 1
			h, c = in.conns.insert(now, serverKey(pkt)) // in tcpSynRcvd
			c.iss, c.sndNxt, c.rcvNxt = iss, iss+1, pkt.Seq+1
			in.stats.ConnsAccepted++
		}
		// SYN (or retransmitted SYN): (re)send SYN-ACK.
		in.conns.touch(h, now)
		in.sendSegment(pkt.Src, pkt.DstPort, pkt.SrcPort,
			c.iss, c.rcvNxt, netsim.FlagSYN|netsim.FlagACK, nil)

		// Fast-path exploit: a lone SYN|PSH probe carrying payload is
		// the worm simulator's single-packet abstraction.
		if len(pkt.Payload) > 0 {
			c.setState(tcpEstablished)
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
		in.conns.touch(h, now)
		switch c.state() {
		case tcpSynRcvd:
			if pkt.Flags&netsim.FlagACK != 0 && pkt.Ack == c.sndNxt {
				c.setState(tcpEstablished)
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
				c.setState(tcpFinWait)
			}
		case tcpFinWait:
			if pkt.Flags&netsim.FlagACK != 0 && pkt.Ack == c.sndNxt {
				in.conns.remove(h)
				in.stats.ConnsClosed++
			}
		}
	}
}

// handleClientTCP advances an exploit dialogue this guest initiated.
func (in *Instance) handleClientTCP(now sim.Time, h uint16, c *tcpConn, pkt *netsim.Packet) {
	in.conns.touch(h, now)
	switch {
	case pkt.Flags&netsim.FlagRST != 0:
		in.conns.remove(h)
	case c.state() == tcpSynSent && pkt.Flags&(netsim.FlagSYN|netsim.FlagACK) == netsim.FlagSYN|netsim.FlagACK:
		if c.canary() {
			// A canary got its SYN-ACK: something answered, so the
			// guest's honeypot suspicion resets. No payload follows.
			c.rcvNxt = pkt.Seq + 1
			in.canaryAnswered(h, c)
			return
		}
		// Handshake completes: ACK and fire the exploit payload.
		c.setState(tcpEstablished)
		c.rcvNxt = pkt.Seq + 1
		payload := in.exploit
		in.sendSegment(pkt.Src, c.lport, c.rport,
			c.sndNxt, c.rcvNxt, netsim.FlagACK|netsim.FlagPSH, payload)
		c.sndNxt += uint32(len(payload))
		in.stats.ExploitsSent++
		// Dialogue done; drop our state (fire and forget, like the
		// malware it models).
		in.conns.remove(h)
	}
}

// openExploitDialogue begins a full client-side handshake toward dst.
func (in *Instance) openExploitDialogue(dst netsim.Addr, dstPort uint16) {
	now := in.K.Now()
	srcPort := in.ephemeralPort()
	iss := uint32(in.rng.Uint64()) | 1
	_, c := in.conns.insert(now, connKey{remote: dst, rport: dstPort, lport: srcPort, client: true})
	c.setState(tcpSynSent)
	c.iss, c.sndNxt = iss, iss+1
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
