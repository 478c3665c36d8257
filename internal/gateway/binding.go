package gateway

import (
	"potemkin/internal/flatindex"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/trace"
)

// BindingState tracks a binding's lifecycle.
type BindingState int

// Binding states.
const (
	// BindingPending: a VM is being flash-cloned; packets queue.
	BindingPending BindingState = iota
	// BindingActive: the VM is live and receiving.
	BindingActive
)

// Binding is the gateway's per-address state: the IP→VM mapping plus
// the flow context containment decisions need. A *Binding is valid
// until the binding is recycled: the gateway reuses the struct, emptied,
// for a later address.
type Binding struct {
	Addr  netsim.Addr
	State BindingState
	VM    VMRef
	Hint  SpawnHint

	CreatedAt  sim.Time
	LastActive sim.Time

	// pending queues inbound packets while the clone is in flight, each
	// copied into a packet the gateway holds (see held.go): the flush
	// and recycle return them to the gateway's free list.
	pending []*netsim.Packet

	// peers are remotes that sent traffic to this binding; outbound
	// replies to them are permitted under PolicyReflectSource and up.
	peers peerSet

	// outTargets are distinct remotes this VM attempted to contact —
	// the scan detector's input, which stops at DetectThreshold.
	outTargets []netsim.Addr
	detected   bool

	// Tracing state (nil/empty when Config.Tracer is unset). span is the
	// binding's root span; spawnSpan covers the current clone request;
	// activeSpan covers the VM-live phase. pendingAt records when each
	// queued packet arrived, so the flush can observe per-packet
	// pending-wait latency.
	span       *trace.Span
	spawnSpan  *trace.Span
	activeSpan *trace.Span
	pendingAt  []sim.Time

	// Recycling state. onReady is b.vmReady, bound once for the struct's
	// lifetime and handed to the backend with every VM request; attempt
	// is the retries that request has spent. waiting is set while a
	// backend answer or a retry timer is outstanding (one at a time),
	// gone once the binding has been recycled: a binding recycled
	// mid-wait joins the free list only when the wait ends, so a late
	// answer can never reach a later tenant. gen counts tenants, for the
	// expiry heap's stale entries, which have no such end.
	g       *Gateway
	onReady func(VMRef, error)
	attempt int
	waiting bool
	gone    bool
	gen     uint32
}

// newBinding returns a pending binding for addr, on a recycled struct
// when the gateway has one: its peer set is emptied and its slices
// truncated, so nothing of the last tenant — peer, target, detection,
// span, queued packet (recycle returned those) — survives.
func (g *Gateway) newBinding(now sim.Time, addr netsim.Addr, hint SpawnHint) *Binding {
	b := pop(&g.freeBindings)
	if b != nil {
		b.peers.reset()
	} else {
		b = &Binding{}
		b.onReady = b.vmReady
	}
	*b = Binding{
		Addr:       addr,
		State:      BindingPending,
		Hint:       hint,
		CreatedAt:  now,
		LastActive: now,
		pending:    b.pending[:0],
		peers:      b.peers,
		outTargets: b.outTargets[:0],
		pendingAt:  b.pendingAt[:0],
		g:          g,
		onReady:    b.onReady,
		gen:        b.gen + 1,
	}
	return b
}

// release puts a recycled binding on the free list once nothing is
// waiting to call it back.
func (b *Binding) release() {
	if b.gone && !b.waiting {
		b.g.freeBindings = append(b.g.freeBindings, b)
	}
}

// peerSet is a binding's remembered peers: a ring in arrival order —
// appended to until it holds maxPeers, then overwritten oldest first —
// and an index from address to ring position plus one.
type peerSet struct {
	ring  peerRing
	head  int // the oldest peer's position
	index flatindex.Index[netsim.Addr, uint32, peerRing]
}

// peerRing is what the index needs to know about a ring position.
type peerRing []netsim.Addr

func (r peerRing) Key(pos uint32) netsim.Addr { return r[pos-1] }

func (peerRing) Hash(a netsim.Addr) uint64 { return uint64(a) }

func (s *peerSet) has(addr netsim.Addr) bool { return s.index.Get(s.ring, addr) != 0 }

func (s *peerSet) len() int { return s.index.Len() }

// note adds addr, evicting the oldest peer when the set is full. The
// ring is appended to only before its first eviction, so head is 0
// whenever it grows.
func (s *peerSet) note(addr netsim.Addr) {
	if s.has(addr) {
		return
	}
	if s.len() == maxPeers {
		if !s.index.Delete(s.ring, s.ring[s.head]) {
			panic("gateway: peer ring and index disagree")
		}
		s.head = (s.head + 1) % len(s.ring)
	}
	n := s.len()
	if n == len(s.ring) {
		s.ring = append(s.ring, addr)
	} else {
		s.ring[(s.head+n)%len(s.ring)] = addr
	}
	s.index.Insert(s.ring, uint32((s.head+n)%len(s.ring)+1))
}

// reset forgets every peer, keeping the ring and the index for reuse.
func (s *peerSet) reset() {
	s.ring, s.head = s.ring[:0], 0
	s.index.Clear()
}

// notePeer remembers a remote that contacted this binding, evicting the
// oldest peer when the table is full (replies answer recent contacts,
// so recency is what fidelity needs).
func (b *Binding) notePeer(addr netsim.Addr) { b.peers.note(addr) }

// isPeer reports whether addr previously contacted this binding.
func (b *Binding) isPeer(addr netsim.Addr) bool { return b.peers.has(addr) }

// Peers returns the number of remembered peers.
func (b *Binding) Peers() int { return b.peers.len() }

// Detected reports whether the scan detector flagged this binding.
func (b *Binding) Detected() bool { return b.detected }

// OutTargets returns the number of distinct outbound targets attempted.
func (b *Binding) OutTargets() int { return len(b.outTargets) }
