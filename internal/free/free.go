// Package free holds the one free list the simulator recycles through:
// a clone's VM, guest, page table and kernel events, a binding and its
// held packets, and every other struct a steady state reuses instead of
// allocating. It imports nothing, so any layer can keep one.
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
