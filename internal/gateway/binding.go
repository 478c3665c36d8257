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
	b, ok := g.freeBindings.Get()
	if ok {
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
// waiting to call it back. It lets go of the last tenant's VM and spans
// first, so a parked binding holds nothing a trim would not free.
func (b *Binding) release() {
	if b.gone && !b.waiting {
		b.VM, b.span, b.spawnSpan, b.activeSpan = nil, nil, nil, nil
		b.g.freeBindings.Put(b)
	}
}

// peerSet is a binding's remembered peers: an index of the addresses
// themselves, so a lookup reads its index slots and nothing else, and a
// ring in arrival order — appended to until it holds maxPeers, then
// overwritten oldest first — which only says whom to evict. Address 0
// marks an empty index slot, so 0.0.0.0, which a source may be, is
// held in zero instead.
type peerSet struct {
	ring  []netsim.Addr
	head  int  // the oldest peer's position
	zero  bool // 0.0.0.0 is a peer
	index flatindex.Index[netsim.Addr, netsim.Addr, peerAddrs]
}

// peerAddrs is the index's table: a handle is the address it indexes.
type peerAddrs struct{}

func (peerAddrs) Key(a netsim.Addr) netsim.Addr { return a }

func (peerAddrs) Hash(a netsim.Addr) uint64 { return uint64(a) }

func (s *peerSet) has(addr netsim.Addr) bool {
	if addr == 0 {
		return s.zero
	}
	return s.index.Get(peerAddrs{}, addr) != 0
}

// note adds addr, overwriting the oldest peer when the set is full. The
// ring is appended to only before its first eviction, so head is 0
// whenever it grows.
func (s *peerSet) note(addr netsim.Addr) {
	if s.has(addr) {
		return
	}
	if len(s.ring) < maxPeers {
		s.ring = append(s.ring, addr)
	} else {
		if old := s.ring[s.head]; old == 0 {
			s.zero = false
		} else if !s.index.Delete(peerAddrs{}, old) {
			panic("gateway: peer ring and index disagree")
		}
		s.ring[s.head] = addr
		s.head = (s.head + 1) % maxPeers
	}
	if addr == 0 {
		s.zero = true
	} else {
		s.index.Insert(peerAddrs{}, addr)
	}
}

// reset forgets every peer, keeping the ring and the index for reuse.
func (s *peerSet) reset() {
	s.ring, s.head, s.zero = s.ring[:0], 0, false
	s.index.Clear()
}

// notePeer remembers a remote that contacted this binding, evicting the
// oldest peer when the table is full (replies answer recent contacts,
// so recency is what fidelity needs).
func (b *Binding) notePeer(addr netsim.Addr) { b.peers.note(addr) }

// isPeer reports whether addr previously contacted this binding.
func (b *Binding) isPeer(addr netsim.Addr) bool { return b.peers.has(addr) }
