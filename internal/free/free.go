// Package free holds the one free list the simulator recycles through:
// a clone's VM, guest, page table and kernel events, a binding and its
// held packets, and every other struct a steady state reuses instead of
// allocating. It imports nothing, so any layer can keep one.
//
// A Pool is a List that gives back what a burst left: its owner calls
// Trim once a scrub period (the gateway's scrub tick, see
// gateway.Gateway), and Trim drops the parked items beyond a multiple,
// which the owner states, of the most the pool ever handed out in one
// period. The memory is the largest burst ever, not a window that
// decays: a burst that comes back after any idle stretch finds what it
// needs parked and allocates nothing. A List has no counters and is
// never trimmed; it is for items no scrub releases (kernel events,
// envelopes, overflow handles), and for the many small per-class lists
// a counter would weigh on.
package free

// List is a LIFO free list; the nil list is empty and ready to use. It
// is not safe for concurrent use: a list belongs to one owner, which
// scrubs an item before it parks it and picks its bound, none (Put) or
// a number of parked items (PutBelow). Owners park and take only
// through the methods; tests may read the parked items as a slice.
type List[T any] []T

// Get takes the most recently parked item, or reports that there is
// none. It clears the slot the item leaves, so the list never keeps
// what it handed out alive.
func (l *List[T]) Get() (item T, ok bool) {
	n := len(*l)
	if n == 0 {
		return item, false
	}
	var zero T
	item, (*l)[n-1] = (*l)[n-1], zero
	*l = (*l)[:n-1]
	return item, true
}

// Put parks x.
func (l *List[T]) Put(x T) { *l = append(*l, x) }

// PutBelow parks x unless the list already holds limit items, and
// reports whether it did; a refused x is left to the collector.
func (l *List[T]) PutBelow(x T, limit int) bool {
	if len(*l) >= limit {
		return false
	}
	*l = append(*l, x)
	return true
}

// Len returns how many items are parked.
func (l *List[T]) Len() int { return len(*l) }

// Pool is a List that counts its demand, for an owner that trims it;
// the zero Pool is empty and ready to use.
type Pool[T any] struct {
	List[T]
	// got counts the Gets since the last Trim, whether or not they found
	// an item: a miss is demand the caller met by allocating. most is
	// the largest got any period has ended with. They are 32 bits, so a
	// Pool is 32 bytes: a store keeps three, and every simulated server
	// has a store.
	got, most int32
}

// Trimmer is a Pool of any item type, as an owner's EachPool hands it
// to whatever walks the owner's pools: the scrub's trim, or a census.
type Trimmer interface {
	Trim(keep int)
	Len() int
	Most() int
}

// Get takes the most recently parked item, or reports that there is
// none, and counts the demand either way.
func (p *Pool[T]) Get() (item T, ok bool) {
	p.got++
	return p.List.Get()
}

// Most is the most the pool has handed out in one period, this one
// included.
func (p *Pool[T]) Most() int { return int(max(p.most, p.got)) }

// Trim ends a period: it drops the parked items beyond keep times the
// most the pool has handed out in any one period, this one included.
// The dropped items' slots are cleared, so the collector takes them;
// the backing array stays, so parking up to its capacity again
// allocates nothing.
func (p *Pool[T]) Trim(keep int) {
	p.most = max(p.most, p.got)
	p.got = 0
	if limit := keep * int(p.most); len(p.List) > limit {
		clear(p.List[limit:])
		p.List = p.List[:limit]
	}
}
