// Package flatindex is the hash index behind the simulator's small
// per-entity tables — a guest's connections, a binding's peers, a
// clone's page table — where a Go map's buckets, sized for growth, would
// cost more than the entries.
//
// An Index is open-addressed with linear probing from a Fibonacci hash:
// one flat slice of handles, a power of two long and at most three
// quarters full, so at the limit a hit probes 2.5 slots and a miss 8.5 on
// average (1.3 and 1.8 just after the index doubles); deletion shifts
// later entries of the probe run back instead of leaving tombstones. A
// caller that inserts what it just failed to find (a page fault) probes
// once: Find reports the slot where the miss stopped and InsertAt fills
// it.
package flatindex

import "math/bits"

// Entries is the table an Index serves. A handle names one of its
// entries — a pointer, or a position plus one — and Key is that entry's
// key; Hash spreads a key over 64 bits (the index mixes again, so
// packing the key's fields is enough). The zero handle marks an empty
// slot, so the table never hands it out.
type Entries[K comparable, H comparable] interface {
	Key(H) K
	Hash(K) uint64
}

// Index maps keys to the handles of the entries that hold them. The
// zero Index is empty and allocates on its first Insert. Every method
// takes the table whose handles it stores.
type Index[K comparable, H comparable, E Entries[K, H]] struct {
	slots []H
	shift uint8
	n     int
}

// minSlots is the size of a first index: three entries.
const minSlots = 4

// Len returns the number of indexed entries.
func (x *Index[K, H, E]) Len() int { return x.n }

// Slots returns the index's length in slots: what it costs, and what
// Clear has to zero.
func (x *Index[K, H, E]) Slots() int { return len(x.slots) }

// full reports whether one more entry would leave the index more than
// three quarters full.
func (x *Index[K, H, E]) full() bool { return 4*(x.n+1) > 3*len(x.slots) }

// home is where a key with hash h starts probing (Fibonacci hashing).
func (x *Index[K, H, E]) home(h uint64) int {
	return int(h * 0x9e3779b97f4a7c15 >> x.shift)
}

// Get returns the handle indexed under k, or the zero handle.
func (x *Index[K, H, E]) Get(e E, k K) H {
	if x.n == 0 {
		var none H
		return none
	}
	h, _ := x.Find(e, k)
	return h
}

// Find is Get that also returns the slot its probe stopped at: on a
// miss, the slot InsertAt takes.
func (x *Index[K, H, E]) Find(e E, k K) (H, int) {
	var none H
	if len(x.slots) == 0 {
		return none, 0
	}
	mask := len(x.slots) - 1
	for i := x.home(e.Hash(k)); ; i = (i + 1) & mask {
		if h := x.slots[i]; h == none || e.Key(h) == k {
			return h, i
		}
	}
}

// Insert indexes h under its key, which must not be indexed already.
func (x *Index[K, H, E]) Insert(e E, h H) {
	if x.full() {
		x.grow(e)
	}
	x.place(e, h)
	x.n++
}

// InsertAt is Insert for a handle whose key Find just missed at slot i,
// with the index unchanged since.
func (x *Index[K, H, E]) InsertAt(e E, h H, i int) {
	if x.full() {
		x.grow(e)
		x.place(e, h)
	} else {
		x.slots[i] = h
	}
	x.n++
}

// place puts h in the first empty slot of its probe run.
func (x *Index[K, H, E]) place(e E, h H) {
	var none H
	mask := len(x.slots) - 1
	i := x.home(e.Hash(e.Key(h)))
	for x.slots[i] != none {
		i = (i + 1) & mask
	}
	x.slots[i] = h
}

// grow doubles the index and reinserts what it held.
func (x *Index[K, H, E]) grow(e E) {
	old := x.slots
	size := max(minSlots, 2*len(old))
	x.slots = make([]H, size)
	x.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	var none H
	for _, h := range old {
		if h != none {
			x.place(e, h)
		}
	}
}

// Delete unindexes the entry under k and reports whether there was one.
// The entries after it in its probe run move back to close the gap, so a
// later probe stops only where it always would have.
func (x *Index[K, H, E]) Delete(e E, k K) bool {
	var none H
	h, i := x.Find(e, k)
	if h == none {
		return false
	}
	// i is the hole. An entry further on may fill it only if the hole
	// lies on its own probe path: between its home and where it sits.
	mask := len(x.slots) - 1
	for j := (i + 1) & mask; x.slots[j] != none; j = (j + 1) & mask {
		h := x.slots[j]
		if home := x.home(e.Hash(e.Key(h))); (j-home)&mask >= (j-i)&mask {
			x.slots[i] = h
			i = j
		}
	}
	x.slots[i] = none
	x.n--
	return true
}

// Clear unindexes everything, keeping the slots for reuse.
func (x *Index[K, H, E]) Clear() {
	clear(x.slots)
	x.n = 0
}
