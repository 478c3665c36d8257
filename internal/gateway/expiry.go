package gateway

import (
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
)

// The binding-expiry index: a lazy-deletion min-heap of (deadline,
// binding) entries, so a scrub tick costs O(expired · log n) instead of
// scanning every live binding (the 10k-binding steady state in
// BenchmarkAblationScrub never expires anything — the old scan paid for
// all 10k each tick, the heap pays one peek).
//
// Invariants that make lazy deletion sound:
//
//   - Every live binding has exactly one heap entry, pushed at bind time
//     with the deadline computed from its then-current LastActive.
//     Packet arrivals refresh LastActive without touching the heap, so a
//     pushed deadline is always ≤ the binding's actual deadline — the
//     heap can fire early (the entry is then re-pushed at the true
//     deadline) but never late.
//   - Recycling does not remove entries. A popped entry is validated
//     against g.bindings by pointer and tenant generation (Binding
//     structs are reused); entries for recycled (or rebound — the
//     address may carry a new binding) bindings are dropped.
//
// seq breaks deadline ties in insertion order, keeping pop order — and
// therefore the recycle event log — a pure function of the seed.

type expiryEntry struct {
	at   sim.Time
	seq  uint64
	addr netsim.Addr
	gen  uint32
	b    *Binding
}

// expiryHeap is a binary min-heap on (at, seq). It is written out
// rather than driven through container/heap because that interface
// boxes every entry pushed and popped: two heap objects per binding.
type expiryHeap []expiryEntry

func (h expiryHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *expiryHeap) push(e expiryEntry) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *expiryHeap) pop() expiryEntry {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	s[n] = expiryEntry{}
	s = s[:n]
	*h = s
	for i := 0; ; {
		least := i
		for c := 2*i + 1; c <= 2*i+2 && c < n; c++ {
			if s.less(c, least) {
				least = c
			}
		}
		if least == i {
			return top
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
}

// bindingDeadline computes when b becomes scrubbable: the earlier of
// idle expiry (from LastActive) and lifetime expiry (from CreatedAt).
// ok is false when neither timeout is configured.
func (g *Gateway) bindingDeadline(b *Binding) (at sim.Time, ok bool) {
	if g.Cfg.IdleTimeout > 0 {
		at, ok = b.LastActive.Add(g.Cfg.IdleTimeout), true
	}
	if g.Cfg.MaxLifetime > 0 {
		if l := b.CreatedAt.Add(g.Cfg.MaxLifetime); !ok || l < at {
			at, ok = l, true
		}
	}
	return at, ok
}

// scheduleExpiry pushes b's current deadline onto the expiry heap.
// No-op when recycling is disabled (the heap would only grow).
func (g *Gateway) scheduleExpiry(addr netsim.Addr, b *Binding) {
	at, ok := g.bindingDeadline(b)
	if !ok {
		return
	}
	g.expirySeq++
	g.expiry.push(expiryEntry{at: at, seq: g.expirySeq, addr: addr, gen: b.gen, b: b})
}
