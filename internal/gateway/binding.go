package gateway

import (
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
// until the binding is recycled: the gateway reuses the struct, maps
// cleared, for a later address.
type Binding struct {
	Addr  netsim.Addr
	State BindingState
	VM    VMRef
	Hint  SpawnHint

	CreatedAt  sim.Time
	LastActive sim.Time

	// pending queues inbound packets while the clone is in flight.
	pending []*netsim.Packet

	// peers are remotes that sent traffic to this binding; outbound
	// replies to them are permitted under PolicyReflectSource and up.
	// peerOrder tracks insertion order for oldest-first eviction.
	peers     map[netsim.Addr]struct{}
	peerOrder []netsim.Addr

	// outTargets are distinct remotes this VM attempted to contact —
	// the scan detector's input.
	outTargets map[netsim.Addr]struct{}
	detected   bool

	// rate is the outbound token bucket, filled on first use (limited).
	rate    bucket
	limited bool

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
// when the gateway has one: its maps are cleared and its slices
// truncated, so nothing of the last tenant — peer, target, detection,
// span, queued packet — survives.
func (g *Gateway) newBinding(now sim.Time, addr netsim.Addr, hint SpawnHint) *Binding {
	var b *Binding
	if n := len(g.freeBindings); n > 0 {
		b, g.freeBindings[n-1] = g.freeBindings[n-1], nil
		g.freeBindings = g.freeBindings[:n-1]
		clear(b.peers)
		clear(b.outTargets)
		clear(b.pending)
	} else {
		b = &Binding{
			peers:      make(map[netsim.Addr]struct{}),
			outTargets: make(map[netsim.Addr]struct{}),
		}
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
		peerOrder:  b.peerOrder[:0],
		outTargets: b.outTargets,
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

// notePeer remembers a remote that contacted this binding, evicting the
// oldest peer when the table is full (replies answer recent contacts,
// so recency is what fidelity needs).
func (b *Binding) notePeer(addr netsim.Addr, limit int) {
	if _, ok := b.peers[addr]; ok {
		return
	}
	for len(b.peers) >= limit && len(b.peerOrder) > 0 {
		oldest := b.peerOrder[0]
		// Shift rather than reslice: the array is the binding's for
		// good, and a resliced head would be lost to every later tenant.
		b.peerOrder = b.peerOrder[:copy(b.peerOrder, b.peerOrder[1:])]
		delete(b.peers, oldest)
	}
	b.peers[addr] = struct{}{}
	b.peerOrder = append(b.peerOrder, addr)
}

// isPeer reports whether addr previously contacted this binding.
func (b *Binding) isPeer(addr netsim.Addr) bool {
	_, ok := b.peers[addr]
	return ok
}

// Peers returns the number of remembered peers.
func (b *Binding) Peers() int { return len(b.peers) }

// Detected reports whether the scan detector flagged this binding.
func (b *Binding) Detected() bool { return b.detected }

// OutTargets returns the number of distinct outbound targets attempted.
func (b *Binding) OutTargets() int { return len(b.outTargets) }
