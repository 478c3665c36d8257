package flatindex

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// table is a test table that also hands out the handle of a new entry.
type table[H Handle] interface {
	Entries[uint64, H]
	add(k uint64) H
}

// slab is a test table: handles are positions plus one into keys.
// coarse hashes every key into one of a few values, so probe runs are
// long, collide and wrap around the end of the index.
type slab struct {
	keys   []uint64
	coarse bool
}

func (s *slab) Key(h uint32) uint64 { return s.keys[h-1] }

func (s *slab) Hash(k uint64) uint64 {
	if s.coarse {
		return k % 3 << 62
	}
	return k
}

func (s *slab) add(k uint64) uint32 {
	s.keys = append(s.keys, k)
	return uint32(len(s.keys))
}

// tagged is a test table laid out like a guest's connection table:
// 16-bit handles of which the low 9 name the entry, leaving 7 for the
// index's tag. A key below 511 is its own position, its handle the key
// plus one. weak hashes every key into one of five values, so few tags
// and few homes serve many keys: tags match on different keys, probe
// runs wrap around the end of the index, and Delete shifts tagged
// slots back.
type tagged struct{ weak bool }

func (tagged) Key(h uint16) uint64 { return uint64(h - 1) }

func (t tagged) Hash(k uint64) uint64 {
	if t.weak {
		return k % 5 * 0xbf58476d1ce4e5b9
	}
	return k
}

func (tagged) HandleBits() int { return 9 }

func (tagged) add(k uint64) uint16 { return uint16(k + 1) }

// model runs an index and a Go map side by side over the keys below
// pool, failing the test the moment they disagree.
type model[H Handle, E table[H]] struct {
	t    *testing.T
	name string
	e    E
	x    Index[uint64, H, E]
	m    map[uint64]H
	pool uint64
	// spare holds, by length, the cleared slots resize moved the index
	// out of, for a later resize to hand back, as mem's store does.
	spare map[int][]H
}

func newModel[H Handle, E table[H]](t *testing.T, name string, e E, pool uint64) *model[H, E] {
	return &model[H, E]{t: t, name: name, e: e, m: map[uint64]H{}, pool: pool, spare: map[int][]H{}}
}

// insert indexes k unless it is indexed already: with Insert, or with
// Find then InsertAt on the slot the miss stopped at, as a page fault
// does.
func (r *model[H, E]) insert(k uint64, viaFind bool) {
	if _, ok := r.m[k]; ok {
		return
	}
	h := r.e.add(k)
	if !viaFind {
		r.x.Insert(r.e, h)
	} else if miss, i := r.x.Find(r.e, k); miss != 0 {
		r.t.Fatalf("%s: Find(%d) = %d before it was inserted", r.name, k, miss)
	} else {
		r.x.InsertAt(r.e, h, i)
	}
	r.m[k] = h
}

func (r *model[H, E]) find(k uint64) {
	if h, _ := r.x.Find(r.e, k); h != r.m[k] {
		r.t.Fatalf("%s: Find(%d) = %d, want %d", r.name, k, h, r.m[k])
	}
}

func (r *model[H, E]) delete(k uint64) {
	_, ok := r.m[k]
	if got := r.x.Delete(r.e, k); got != ok {
		r.t.Fatalf("%s: Delete(%d) = %v, want %v", r.name, k, got, ok)
	}
	delete(r.m, k)
}

func (r *model[H, E]) clear() {
	r.x.Clear()
	clear(r.m)
}

// resize moves the index into slots for room more entries than it
// holds — fewer than it has room for when room is small — taken from
// the spares when there are some of that length, and clears and keeps
// the slots it leaves.
func (r *model[H, E]) resize(room int) {
	size := SlotsFor(r.x.Len() + room)
	slots := r.spare[size]
	delete(r.spare, size)
	if slots == nil {
		slots = make([]H, size)
	}
	prev := r.x.slots
	old := r.x.Resize(r.e, slots)
	if len(old) != len(prev) || len(old) > 0 && &old[0] != &prev[0] {
		r.t.Fatalf("%s: Resize returned %d slots, not the %d it held", r.name, len(old), len(prev))
	}
	if len(r.x.slots) != size || &r.x.slots[0] != &slots[0] {
		r.t.Fatalf("%s: Resize did not move the index into the %d slots it was given", r.name, size)
	}
	if len(old) > 0 {
		clear(old)
		r.spare[len(old)] = old
	}
}

// check fails unless the index holds exactly the model, every key of the
// pool looked up, and is at most three quarters full.
func (r *model[H, E]) check() {
	r.t.Helper()
	if r.x.Len() != len(r.m) {
		r.t.Fatalf("%s: Len = %d, want %d", r.name, r.x.Len(), len(r.m))
	}
	if 4*r.x.Len() > 3*r.x.Slots() {
		r.t.Fatalf("%s: %d entries in %d slots, more than three quarters full", r.name, r.x.Len(), r.x.Slots())
	}
	if full := r.x.Slots() < SlotsFor(r.x.Len()+1); r.x.Full() != full {
		r.t.Fatalf("%s: Full = %v with %d entries in %d slots", r.name, r.x.Full(), r.x.Len(), r.x.Slots())
	}
	if _, ok := any(r.e).(Tagged); ok && r.x.Slots() > 0 && r.x.tags == 0 {
		r.t.Fatalf("%s: a tagged index with %d slots has no tag bits", r.name, r.x.Slots())
	}
	for k := uint64(0); k < r.pool; k++ {
		if got := r.x.Get(r.e, k); got != r.m[k] {
			r.t.Fatalf("%s: Get(%d) = %d, want %d", r.name, k, got, r.m[k])
		}
	}
}

// sharedTag reports whether two slots hold different keys under one tag.
func (r *model[H, E]) sharedTag() bool {
	tags, seen := r.x.tags, map[H]H{}
	for _, s := range r.x.slots {
		if s == 0 {
			continue
		}
		if h, ok := seen[s&tags]; ok && h != s&^tags {
			return true
		}
		seen[s&tags] = s &^ tags
	}
	return false
}

// wraps reports whether a probe run crosses the end of the index.
func (r *model[H, E]) wraps() bool {
	n := len(r.x.slots)
	return n > 0 && r.x.slots[0] != 0 && r.x.slots[n-1] != 0
}

// TestIndexMatchesMap inserts, looks up and deletes random keys in an
// index and a Go map side by side, with good and with colliding hashes,
// untagged and tagged, and checks every key of the pool after every
// operation. Every other insert is a miss from Find filled by InsertAt,
// as a page fault does; now and then the index moves into slots the
// test supplies, larger or smaller, recycled from earlier moves.
func TestIndexMatchesMap(t *testing.T) {
	for _, coarse := range []bool{false, true} {
		r := newModel[uint32](t, fmt.Sprintf("coarse=%v", coarse), &slab{coarse: coarse}, 96)
		matchMap(r)
	}
	for _, weak := range []bool{false, true} {
		r := newModel[uint16](t, fmt.Sprintf("tagged weak=%v", weak), tagged{weak: weak}, 96)
		shared, wrapped := matchMap(r)
		if weak && (!shared || !wrapped) {
			t.Errorf("tagged weak hash: a tag shared by different keys %v, a probe run wrapped %v; want both", shared, wrapped)
		}
	}
}

// matchMap drives r through 20000 random operations and reports whether
// the index ever held a tag shared by different keys, and a probe run
// wrapping around its end.
func matchMap[H Handle, E table[H]](r *model[H, E]) (shared, wrapped bool) {
	rng := rand.New(rand.NewPCG(1, 2))
	for op := 0; op < 20000; op++ {
		k := rng.Uint64N(r.pool)
		switch rng.IntN(6) {
		case 0, 1:
			r.insert(k, op%2 != 0)
		case 2, 3:
			r.delete(k)
		case 4:
			if rng.IntN(50) == 0 {
				r.clear()
			}
		case 5:
			if rng.IntN(10) == 0 {
				r.resize(rng.IntN(64))
			}
		}
		r.check()
		shared = shared || r.sharedTag()
		wrapped = wrapped || r.wraps()
	}
	return shared, wrapped
}

// TestTaggedProbeLoadsOneEntry: with a good hash, a tagged index calls
// Key on little more than the entry each lookup returns, where an
// untagged one confirms every slot its probe passes.
func TestTaggedProbeLoadsOneEntry(t *testing.T) {
	c := &countKeys{}
	var x Index[uint64, uint16, *countKeys]
	const n = 384 // three quarters of 512 slots: the fullest the index gets
	for k := uint64(0); k < n; k++ {
		x.Insert(c, uint16(k+1))
	}
	c.calls = 0
	for k := uint64(0); k < n; k++ {
		if h := x.Get(c, k); h != uint16(k+1) {
			t.Fatalf("Get(%d) = %d", k, h)
		}
	}
	// A hit probes 2.5 slots on average at this load; 1 in 128 of the
	// slots it passes shares its tag.
	if c.calls > n+n/16 {
		t.Errorf("%d lookups called Key %d times, want at most %d", n, c.calls, n+n/16)
	}
}

// countKeys is tagged, with a good hash, counting its Key calls.
type countKeys struct{ calls int }

func (c *countKeys) Key(h uint16) uint64 {
	c.calls++
	return uint64(h - 1)
}

func (*countKeys) Hash(k uint64) uint64 { return k }

func (*countKeys) HandleBits() int { return 9 }

// FuzzIndexOps decodes bytes into index operations — Insert, Find then
// InsertAt, Delete, Clear, Resize into supplied slots — on a pool of 256
// keys, and checks the index against a Go map after every one. The
// first byte picks the table: bit 0 a coarse (or weak) hash, bit 1 the
// tagged table. Seeds #6 (untagged) and #7 (tagged) resize as well, the
// first time into an empty index, so its first slots are supplied.
func FuzzIndexOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 2, 2, 3, 0, 1, 4, 0})
	f.Add([]byte{1, 0, 1, 0, 4, 0, 7, 1, 10, 2, 1, 3, 0, 1, 13})
	for seed := uint64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewPCG(seed, 3))
		data := []byte{byte(seed)}
		ops := 8
		if seed > 4 { // the resize op too
			data, ops = append(data, 8, 20), 9
		}
		for range 2000 {
			data = append(data, byte(rng.IntN(ops)), byte(rng.IntN(64)))
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		hard := data[0]&1 != 0
		if data[0]&2 != 0 {
			fuzzOps(newModel[uint16](t, fmt.Sprintf("tagged weak=%v", hard), tagged{weak: hard}, 256), data[1:])
		} else {
			fuzzOps(newModel[uint32](t, fmt.Sprintf("coarse=%v", hard), &slab{coarse: hard}, 256), data[1:])
		}
	})
}

func fuzzOps[H Handle, E table[H]](r *model[H, E], data []byte) {
	for ; len(data) >= 2; data = data[2:] {
		op, k := data[0], uint64(data[1])
		switch op % 9 {
		case 0, 1, 2:
			r.insert(k, false)
		case 3, 4:
			r.find(k)
			r.insert(k, true)
		case 5, 6:
			r.delete(k)
		case 7:
			r.clear()
		case 8:
			r.resize(int(k) % 64)
		}
		r.check()
	}
}

func TestZeroIndex(t *testing.T) {
	var x Index[uint64, uint32, *slab]
	s := &slab{}
	if x.Get(s, 7) != 0 || x.Delete(s, 7) || x.Len() != 0 {
		t.Error("the zero Index is not empty")
	}
	x.Clear()
	s.keys = append(s.keys, 7)
	x.Insert(s, 1)
	if len(x.slots) != minSlots || x.Get(s, 7) != 1 {
		t.Errorf("first insert: %d slots, Get = %d", len(x.slots), x.Get(s, 7))
	}
}

// TestSlotsFor: SlotsFor is the smallest power of two, and at least a
// first index's size, that n entries fill no more than three quarters of.
func TestSlotsFor(t *testing.T) {
	for n := 0; n <= 5000; n++ {
		want := minSlots
		for 4*n > 3*want {
			want *= 2
		}
		if got := SlotsFor(n); got != want {
			t.Fatalf("SlotsFor(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestTaggedIndexFirstResized: a tagged index whose first slots are
// supplied, not grown, tags them, so a probe still loads little more
// than the entry it returns.
func TestTaggedIndexFirstResized(t *testing.T) {
	c := &countKeys{}
	var x Index[uint64, uint16, *countKeys]
	const n = 384
	if old := x.Resize(c, make([]uint16, SlotsFor(n))); old != nil {
		t.Fatalf("an empty index's Resize returned %d slots", len(old))
	}
	if x.tags != 0xfe00 {
		t.Fatalf("tag mask %#x after the first Resize, want the 7 bits above the handle's 9", x.tags)
	}
	for k := uint64(0); k < n; k++ {
		x.Insert(c, uint16(k+1))
	}
	if x.Slots() != SlotsFor(n) {
		t.Fatalf("%d entries grew the reserved index to %d slots", n, x.Slots())
	}
	c.calls = 0
	for k := uint64(0); k < n; k++ {
		if h := x.Get(c, k); h != uint16(k+1) {
			t.Fatalf("Get(%d) = %d", k, h)
		}
	}
	if c.calls > n+n/16 {
		t.Errorf("%d lookups called Key %d times, want at most %d", n, c.calls, n+n/16)
	}
}
