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
			if x.Len() != len(model) {
				t.Fatalf("coarse=%v op %d: Len = %d, want %d", coarse, op, x.Len(), len(model))
			}
			if 2*x.Len() > len(x.slots) && x.Len() > 0 {
				t.Fatalf("coarse=%v op %d: %d entries in %d slots", coarse, op, x.Len(), len(x.slots))
			}
			for k := uint64(0); k < pool; k++ {
				if got := x.Get(s, k); got != model[k] {
					t.Fatalf("coarse=%v op %d: Get(%d) = %d, want %d", coarse, op, k, got, model[k])
				}
			}
		}
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
