package guest

import (
	"testing"
	"time"
	"unsafe"

	"potemkin/internal/netsim"
	"potemkin/internal/sim"
)

// Every warm flow holds a tcpConn for as long as it is tracked, so its
// size is most of what a flow costs the host: 32 bytes, 64 to a
// 2,048-byte size class.
func TestConnSize(t *testing.T) {
	if got := unsafe.Sizeof(tcpConn{}); got != 32 {
		t.Errorf("tcpConn is %d bytes, want 32", got)
	}
}

// TestInstanceSize: an Instance stays in the 480-byte size class. Every
// live VM holds one, and the next class up is 512 bytes.
func TestInstanceSize(t *testing.T) {
	if got := unsafe.Sizeof(Instance{}); got > 480 {
		t.Errorf("Instance is %d bytes, want at most 480", got)
	}
}

// TestInsertReplacingKeyInFullTableEvictsNothingElse: a full table that
// opens a connection under a key it already holds replaces that one and
// evicts nothing else.
func TestInsertReplacingKeyInFullTableEvictsNothingElse(t *testing.T) {
	var ct connTable
	key := func(i int) connKey {
		return connKey{remote: netsim.Addr(0x0b000000 + i), rport: 445, lport: uint16(1024 + i), client: true}
	}
	for i := 0; i < maxConns; i++ {
		ct.insert(sim.Time(i), key(i))
	}
	h, c := ct.insert(sim.Time(maxConns), key(maxConns-1))
	c.iss = 7
	if ct.len() != maxConns {
		t.Errorf("len = %d after replacing a key in a full table, want %d", ct.len(), maxConns)
	}
	if _, c := ct.lookup(key(0)); c == nil {
		t.Error("the oldest connection was evicted to make room for a replacement")
	}
	if gh, got := ct.lookup(key(maxConns - 1)); got != c || gh != h || got.iss != 7 || ct.newest != h {
		t.Error("the replacement is not the connection indexed under its key, or not the newest")
	}
	if ct.clients != maxConns {
		t.Errorf("clients = %d, want %d", ct.clients, maxConns)
	}
}

// TestConnTableSteadyStateAllocs: a table that was full once keeps its
// slab and its index's slots across reset, so a recycled guest serves a
// fresh full table — inserts, touches and oldest-idle evictions —
// without allocating.
func TestConnTableSteadyStateAllocs(t *testing.T) {
	var ct connTable
	key := func(i int) connKey {
		return connKey{remote: netsim.Addr(0x0b000000 + i), rport: uint16(1024 + i), lport: 445}
	}
	has := func(k connKey) bool { _, c := ct.lookup(k); return c != nil }
	// serve fills the table with flows from base on, touches every other
	// one, then opens a quarter more, each evicting the oldest-idle.
	serve := func(base int) {
		for i := 0; i < maxConns; i++ {
			ct.insert(sim.Time(i), key(base+i))
		}
		for i := 0; i < maxConns; i += 2 {
			h, _ := ct.lookup(key(base + i))
			ct.touch(h, sim.Time(maxConns+i))
		}
		for i := 0; i < maxConns/4; i++ {
			ct.insert(sim.Time(2*maxConns+i), key(base+maxConns+i))
		}
	}
	serve(0)
	base := 0
	if avg := testing.AllocsPerRun(50, func() {
		ct.reset()
		base += 2 * maxConns
		serve(base)
	}); avg != 0 {
		t.Errorf("a recycled table serving a full table allocates %.1f objects, want 0", avg)
	}
	if ct.len() != maxConns || has(key(base+1)) || !has(key(base)) {
		t.Errorf("len = %d; evictions did not take the untouched flows first", ct.len())
	}
}

// refConn and refConnTable are the connection table as it was before the
// flat index: a Go map over an idle-order list, keyed by flow. insert
// removes the connection whose key it replaces before deciding to
// evict, as the table under test does.
type refConn struct {
	key          flowKey
	client       bool
	lastActive   sim.Time
	older, newer *refConn
}

type refConnTable struct {
	conns          map[flowKey]*refConn
	oldest, newest *refConn
}

// flowKey is a TCP flow's key, as the table was keyed before connKey:
// remote->local for a server connection, local->remote for a client one.
type flowKey struct {
	src, dst     netsim.Addr
	sport, dport uint16
}

// reverse returns the key of the opposite direction of the same flow.
func (k flowKey) reverse() flowKey { return flowKey{k.dst, k.src, k.dport, k.sport} }

func (rt *refConnTable) lookup(key flowKey) *refConn { return rt.conns[key] }

func (rt *refConnTable) lookupClient(key flowKey) *refConn {
	if c := rt.conns[key.reverse()]; c != nil && c.client {
		return c
	}
	return nil
}

func (rt *refConnTable) insert(now sim.Time, key flowKey, client bool) *refConn {
	if old := rt.conns[key]; old != nil {
		rt.remove(old)
	}
	if len(rt.conns) >= maxConns {
		rt.remove(rt.oldest)
	}
	c := &refConn{key: key, client: client}
	rt.conns[key] = c
	rt.pushNewest(c, now)
	return c
}

func (rt *refConnTable) pushNewest(c *refConn, now sim.Time) {
	c.lastActive = now
	c.older, c.newer = rt.newest, nil
	if rt.newest != nil {
		rt.newest.newer = c
	} else {
		rt.oldest = c
	}
	rt.newest = c
}

func (rt *refConnTable) unlink(c *refConn) {
	if c.older != nil {
		c.older.newer = c.newer
	} else {
		rt.oldest = c.newer
	}
	if c.newer != nil {
		c.newer.older = c.older
	} else {
		rt.newest = c.older
	}
}

func (rt *refConnTable) touch(c *refConn, now sim.Time) {
	rt.unlink(c)
	rt.pushNewest(c, now)
}

func (rt *refConnTable) remove(c *refConn) {
	delete(rt.conns, c.key)
	rt.unlink(c)
}

func (rt *refConnTable) pruneIdle(now sim.Time) int {
	n := 0
	for c := rt.oldest; c != nil && now.Sub(c.lastActive) >= connIdleTimeout; c = rt.oldest {
		rt.remove(c)
		n++
	}
	return n
}

func (rt *refConnTable) reset() {
	clear(rt.conns)
	rt.oldest, rt.newest = nil, nil
}

// connOps drives a connTable and the reference model through the same
// operations, decoded from data, and fails at the first difference in a
// hit, in the idle order (which is where victims show: the same
// connections must be gone, oldest first), or in the length.
func connOps(t *testing.T, data []byte) {
	var ct connTable
	rt := refConnTable{conns: make(map[flowKey]*refConn)}
	local := netsim.MustParseAddr("10.0.0.1")
	// Keys come from a pool of 4,096 flows in each direction: a server
	// connection's flow key and that of the client connection to the
	// same remote end and ports are each other's reverse. Server inserts
	// take the first, client inserts the second, lookups either.
	key := func(k uint16) flowKey {
		remote := netsim.Addr(0x0b000000 | uint32(k>>5))
		port := 1024 + k&15
		if k&16 == 0 {
			return flowKey{src: remote, dst: local, sport: port, dport: 445}
		}
		return flowKey{src: local, dst: remote, sport: 445, dport: port}
	}
	// in is the inbound packet of a flow; tkey maps a flow key to the
	// table's key, as the guest builds it from the packet it receives: a
	// server connection's from the packet itself, a client connection's
	// from the reply.
	in := func(f flowKey) *netsim.Packet {
		return &netsim.Packet{Src: f.src, Dst: f.dst, SrcPort: f.sport, DstPort: f.dport, Proto: netsim.ProtoTCP}
	}
	tkey := func(f flowKey) connKey {
		if f.src == local {
			return clientKey(in(f.reverse()))
		}
		return serverKey(in(f))
	}
	same := func(op int, c *tcpConn, r *refConn) {
		t.Helper()
		if (c == nil) != (r == nil) || c != nil && (c.key() != tkey(r.key) || c.client() != r.client || c.lastActive != r.lastActive) {
			t.Fatalf("op %d: table hit %+v, reference %+v", op, c, r)
		}
	}
	var now sim.Time
	// insert opens a connection in both, a client one as a canary in
	// tcpSynSent and a server one in tcpFinWait: the walk below checks
	// that the flags ride the link updates untouched.
	insert := func(op int, f flowKey, client bool) {
		t.Helper()
		_, c := ct.insert(now, tkey(f))
		if client {
			c.flagsOlder |= connCanary
			c.setState(tcpSynSent)
		} else {
			c.setState(tcpFinWait)
		}
		same(op, c, rt.insert(now, f, client))
	}
	for op := 0; len(data) >= 3; op++ {
		code, k := data[0], uint16(data[1])<<8|uint16(data[2])
		data = data[3:]
		switch code % 10 {
		case 0, 1: // a server connection
			insert(op, key(k&^16), false)
		case 2: // a client connection
			insert(op, key(k|16), true)
		case 3:
			_, c := ct.lookup(tkey(key(k)))
			same(op, c, rt.lookup(key(k)))
		case 4:
			_, c := ct.lookupClient(clientKey(in(key(k))))
			same(op, c, rt.lookupClient(key(k)))
		case 5:
			if h, _ := ct.lookup(tkey(key(k))); h != 0 {
				ct.touch(h, now)
			}
			if r := rt.lookup(key(k)); r != nil {
				rt.touch(r, now)
			}
		case 6:
			if h, _ := ct.lookup(tkey(key(k))); h != 0 {
				ct.remove(h)
			}
			if r := rt.lookup(key(k)); r != nil {
				rt.remove(r)
			}
		case 7: // time passes: up to a quarter of the idle timeout
			now = now.Add(time.Duration(k%256) * connIdleTimeout / 1024)
			if a, b := ct.pruneIdle(now), rt.pruneIdle(now); a != b {
				t.Fatalf("op %d: pruneIdle dropped %d, reference %d", op, a, b)
			}
		case 8: // a burst of 64 flows: the table fills and evicts
			for i := uint16(0); i < 64; i++ {
				insert(op, key((k+i*97)&^16), false)
			}
		case 9:
			if k%8 == 0 {
				ct.reset()
				rt.reset()
			} else {
				now = now.Add(time.Millisecond)
			}
		}
		if ct.len() != len(rt.conns) {
			t.Fatalf("op %d: len %d, reference %d", op, ct.len(), len(rt.conns))
		}
		clients := 0
		var older uint16
		h, r := ct.oldest, rt.oldest
		for ; h != 0 && r != nil; h, r = ct.at(h).newer, r.newer {
			c := ct.at(h)
			same(op, c, r)
			if gh, _ := ct.lookup(c.key()); gh != h {
				t.Fatalf("op %d: the conn at handle %d is indexed at %d", op, h, gh)
			}
			if c.older() != older {
				t.Fatalf("op %d: the conn at handle %d links back to %d, not %d", op, h, c.older(), older)
			}
			want := tcpFinWait
			if c.client() {
				want = tcpSynSent
			}
			if c.state() != want || c.canary() != c.client() {
				t.Fatalf("op %d: the conn at handle %d is %v, canary %v, want %v", op, h, c.state(), c.canary(), want)
			}
			if c.client() {
				clients++
			}
			older = h
		}
		if h != 0 || r != nil || ct.newest != older {
			t.Fatalf("op %d: idle lists differ in length", op)
		}
		if clients != int(ct.clients) {
			t.Fatalf("op %d: %d client connections listed, %d counted", op, clients, ct.clients)
		}
	}
}

// FuzzConnTable checks the flat-indexed connection table against the
// map-based reference on arbitrary operation sequences.
func FuzzConnTable(f *testing.F) {
	f.Add([]byte{2, 0, 16, 0, 0, 16, 4, 0, 0, 3, 0, 16, 6, 0, 16, 4, 0, 0})
	for seed := uint64(1); seed <= 4; seed++ {
		rng := sim.NewRNG(seed)
		data := make([]byte, 3*2000)
		for i := 0; i < len(data); i += 3 {
			data[i] = byte(rng.Uint64n(10))
			k := uint16(rng.Uint64n(1 << 12))
			if seed%2 == 0 {
				k &= 0x1ff // a small pool: mostly hits and replacements
			}
			data[i+1], data[i+2] = byte(k>>8), byte(k)
		}
		f.Add(data)
	}
	f.Fuzz(connOps)
}
