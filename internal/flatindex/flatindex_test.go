package flatindex

import (
	"math/rand/v2"
	"testing"
)

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

// TestIndexMatchesMap inserts, looks up and deletes random keys in an
// index and a Go map side by side, with good and with colliding hashes,
// and checks every key of the pool after every operation. Every other
// insert is a miss from Find filled by InsertAt, as a page fault does.
func TestIndexMatchesMap(t *testing.T) {
	for _, coarse := range []bool{false, true} {
		rng := rand.New(rand.NewPCG(1, 2))
		s := &slab{coarse: coarse}
		var x Index[uint64, uint32, *slab]
		model := map[uint64]uint32{}
		const pool = 96
		for op := 0; op < 20000; op++ {
			k := rng.Uint64N(pool)
			switch rng.IntN(5) {
			case 0, 1:
				if _, ok := model[k]; !ok {
					s.keys = append(s.keys, k)
					h := uint32(len(s.keys))
					if op%2 == 0 {
						x.Insert(s, h)
					} else if miss, i := x.Find(s, k); miss != 0 {
						t.Fatalf("coarse=%v op %d: Find(%d) = %d before it was inserted", coarse, op, k, miss)
					} else {
						x.InsertAt(s, h, i)
					}
					model[k] = h
				}
			case 2, 3:
				_, ok := model[k]
				if got := x.Delete(s, k); got != ok {
					t.Fatalf("coarse=%v op %d: Delete(%d) = %v, want %v", coarse, op, k, got, ok)
				}
				delete(model, k)
			case 4:
				if rng.IntN(50) == 0 {
					x.Clear()
					clear(model)
				}
			}
			checkIndex(t, s, &x, model, pool)
		}
	}
}

// checkIndex fails unless x holds exactly model, every key below pool
// looked up, and is at most three quarters full.
func checkIndex(t *testing.T, s *slab, x *Index[uint64, uint32, *slab], model map[uint64]uint32, pool uint64) {
	t.Helper()
	if x.Len() != len(model) {
		t.Fatalf("coarse=%v: Len = %d, want %d", s.coarse, x.Len(), len(model))
	}
	if 4*x.Len() > 3*x.Slots() {
		t.Fatalf("coarse=%v: %d entries in %d slots, more than three quarters full", s.coarse, x.Len(), x.Slots())
	}
	for k := uint64(0); k < pool; k++ {
		if got := x.Get(s, k); got != model[k] {
			t.Fatalf("coarse=%v: Get(%d) = %d, want %d", s.coarse, k, got, model[k])
		}
	}
}

// FuzzIndexOps decodes bytes into index operations — Insert, Find then
// InsertAt, Delete, Clear — on a pool of 256 keys, hashed finely or
// coarsely as the first byte says, and checks the index against a Go
// map after every one.
func FuzzIndexOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 2, 2, 3, 0, 1, 4, 0})
	f.Add([]byte{1, 0, 1, 0, 4, 0, 7, 1, 10, 2, 1, 3, 0, 1, 13})
	for seed := uint64(1); seed <= 2; seed++ {
		rng := rand.New(rand.NewPCG(seed, 3))
		data := []byte{byte(seed)}
		for range 2000 {
			data = append(data, byte(rng.IntN(8)), byte(rng.IntN(64)))
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		s := &slab{coarse: data[0]&1 != 0}
		var x Index[uint64, uint32, *slab]
		model := map[uint64]uint32{}
		const pool = 256
		for data = data[1:]; len(data) >= 2; data = data[2:] {
			op, k := data[0], uint64(data[1])
			switch op % 8 {
			case 0, 1, 2: // Insert
				if _, ok := model[k]; !ok {
					s.keys = append(s.keys, k)
					model[k] = uint32(len(s.keys))
					x.Insert(s, model[k])
				}
			case 3, 4: // Find, then InsertAt on a miss
				h, i := x.Find(s, k)
				if h != model[k] {
					t.Fatalf("Find(%d) = %d, want %d", k, h, model[k])
				}
				if h == 0 {
					s.keys = append(s.keys, k)
					model[k] = uint32(len(s.keys))
					x.InsertAt(s, model[k], i)
				}
			case 5, 6:
				_, ok := model[k]
				if got := x.Delete(s, k); got != ok {
					t.Fatalf("Delete(%d) = %v, want %v", k, got, ok)
				}
				delete(model, k)
			case 7:
				x.Clear()
				clear(model)
			}
			checkIndex(t, s, &x, model, pool)
		}
	})
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
