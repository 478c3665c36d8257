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
// it. An index grows by doubling, into slots it makes; Resize moves it
// into slots the caller supplies and hands back the ones it leaves, for
// a caller that sizes an index ahead of a burst or recycles its arrays.
//
// A probe reads a slot, then the entry it names to confirm the key: a
// second, dependent cache line. A table whose handles leave spare high
// bits (Tagged) has the index keep a tag of the key's hash there, so a
// slot whose tag differs costs no entry load, and a probe loads only the
// entry it returns. A table whose handles are its keys needs no entry
// load at all.
package flatindex

import "math/bits"

// Entries is the table an Index serves. A handle names one of its
// entries — a position plus one, or the key itself — and Key is that
// entry's key; Hash spreads a key over 64 bits (the index mixes again,
// so packing the key's fields is enough). The zero handle marks an empty
// slot, so the table never hands it out.
type Entries[K comparable, H Handle] interface {
	Key(H) K
	Hash(K) uint64
}

// Handle is what an index slot holds.
type Handle interface{ ~uint16 | ~uint32 }

// Tagged is implemented by an Entries whose handles use only their low
// HandleBits bits. The index stores a tag of the key's hash in the bits
// above, compares it before it calls Key, and hands callers untagged
// handles. HandleBits is a property of the table type: the index asks
// the type's zero value when it first allocates.
type Tagged interface{ HandleBits() int }

// Index maps keys to the handles of the entries that hold them. The
// zero Index is empty and allocates on its first Insert. Every method
// takes the table whose handles it stores.
type Index[K comparable, H Handle, E Entries[K, H]] struct {
	slots []H
	// A mixed hash's top log2(len(slots)) bits, m >> shift, are a key's
	// home. Its tag is H(m >> tagShift) & tags: the bits just below the
	// home's, in the slot bits the handles leave free (tags, 0 when the
	// table is not Tagged).
	shift, tagShift uint8
	tags            H
	n               int
}

// minSlots is the size of a first index: three entries.
const minSlots = 4

// Len returns the number of indexed entries.
func (x *Index[K, H, E]) Len() int { return x.n }

// Slots returns the index's length in slots: what it costs, and what
// Clear has to zero.
func (x *Index[K, H, E]) Slots() int { return len(x.slots) }

// Full reports whether one more entry would leave the index more than
// three quarters full: whether the next insert grows it.
func (x *Index[K, H, E]) Full() bool { return 4*(x.n+1) > 3*len(x.slots) }

// mix spreads a table's hash (Fibonacci hashing): its top bits pick the
// key's home slot, and the bits just below them its tag, so the entries
// of one probe run rarely share a tag.
func mix(h uint64) uint64 { return h * 0x9e3779b97f4a7c15 }

// home is where a key with mixed hash m starts probing.
func (x *Index[K, H, E]) home(m uint64) int { return int(m >> x.shift) }

// tag is the tag a key with mixed hash m carries in its slot.
func (x *Index[K, H, E]) tag(m uint64) H { return H(m>>x.tagShift) & x.tags }

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
// miss, the slot InsertAt takes. In an untagged index tags is 0, so
// every slot's tag matches and Key confirms each.
func (x *Index[K, H, E]) Find(e E, k K) (H, int) {
	var none H
	if len(x.slots) == 0 {
		return none, 0
	}
	mask, m := len(x.slots)-1, mix(e.Hash(k))
	tags, tag := x.tags, x.tag(m)
	for i := x.home(m); ; i = (i + 1) & mask {
		s := x.slots[i]
		if s == none {
			return none, i
		}
		if s&tags == tag && e.Key(s&^tags) == k {
			return s &^ tags, i
		}
	}
}

// Insert indexes h under its key, which must not be indexed already.
func (x *Index[K, H, E]) Insert(e E, h H) {
	if x.Full() {
		x.grow(e)
	}
	x.place(e, h)
	x.n++
}

// InsertAt is Insert for a handle whose key Find just missed at slot i,
// with the index unchanged since.
func (x *Index[K, H, E]) InsertAt(e E, h H, i int) {
	var none H
	switch {
	case x.Full():
		x.grow(e)
		x.place(e, h)
	case x.tags != none:
		x.slots[i] = h | x.tag(mix(e.Hash(e.Key(h))))
	default:
		x.slots[i] = h
	}
	x.n++
}

// place puts h, tagged, in the first empty slot of its probe run.
func (x *Index[K, H, E]) place(e E, h H) {
	var none H
	mask, m := len(x.slots)-1, mix(e.Hash(e.Key(h)))
	i := x.home(m)
	for x.slots[i] != none {
		i = (i + 1) & mask
	}
	x.slots[i] = h | x.tag(m)
}

// grow doubles the index.
func (x *Index[K, H, E]) grow(e E) {
	x.Resize(e, make([]H, max(minSlots, 2*len(x.slots))))
}

// SlotsFor is the length of the smallest index that holds n entries at
// most three quarters full.
func SlotsFor(n int) int {
	need := (4*n + 2) / 3 // the slots n entries fill three quarters of
	return max(minSlots, 1<<bits.Len(uint(max(need, 1)-1)))
}

// Resize moves the index into slots, which must be zeroed, a power of two
// long and at least SlotsFor(Len()), reinserting what it held, retagged:
// a tag is cut from the bits below the home's, which move with the
// index's size. It returns the slots it leaves, still holding their
// handles, for the caller to clear and reuse.
func (x *Index[K, H, E]) Resize(e E, slots []H) []H {
	old, tags := x.slots, x.tags
	if len(old) == 0 {
		var zero E
		if t, ok := any(zero).(Tagged); ok {
			x.tags = ^H(0) << t.HandleBits()
		}
	}
	x.slots = slots
	x.shift = uint8(64 - bits.TrailingZeros(uint(len(slots))))
	x.tagShift = x.shift - uint8(bits.Len64(uint64(^H(0))))
	var none H
	for _, s := range old {
		if s != none {
			x.place(e, s&^tags)
		}
	}
	return old
}

// Delete unindexes the entry under k and reports whether there was one.
// The entries after it in its probe run move back, tags and all, to
// close the gap, so a later probe stops only where it always would have.
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
		s := x.slots[j]
		if home := x.home(mix(e.Hash(e.Key(s &^ x.tags)))); (j-home)&mask >= (j-i)&mask {
			x.slots[i] = s
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
