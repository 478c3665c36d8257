package mem

import (
	"bytes"
	"math/rand"
	"testing"
	"unsafe"
)

// Tests for the slab frame table: slot reuse, generation-tagged
// dangling-ID detection, recycled-buffer hygiene, and the incremental
// O(1) accounting counters against a brute-force recount.

func testPage(fill byte) []byte {
	p := make([]byte, PageSize)
	for i := range p {
		p[i] = fill
	}
	return p
}

// Every dirty page of every VM holds a slot for as long as the VM lives,
// so the slot's size is most of what a dirty page costs the host.
func TestFrameSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(frame{}); got > 96 {
		t.Errorf("frame slot is %d bytes, want at most 96", got)
	}
}

func TestSlabReusesFreedSlots(t *testing.T) {
	s := NewStore()
	id1 := s.AllocData(testPage(1))
	s.DecRef(id1)
	id2 := s.AllocData(testPage(2))
	if id1.index() != id2.index() {
		t.Errorf("freed slot %d not reused: new alloc went to slot %d", id1.index(), id2.index())
	}
	if id1 == id2 {
		t.Error("reused slot did not change generation: stale IDs would alias")
	}
	if got := s.View(id2); got[0] != 2 {
		t.Errorf("reused frame content = %d, want 2", got[0])
	}
}

func TestStaleFrameIDPanicsAfterReuse(t *testing.T) {
	s := NewStore()
	stale := s.AllocData(testPage(1))
	s.DecRef(stale)
	fresh := s.AllocData(testPage(2)) // reoccupies the slot
	if stale.index() != fresh.index() {
		t.Fatal("test setup: slot not reused")
	}
	for name, op := range map[string]func(){
		"View":   func() { s.View(stale) },
		"Refs":   func() { s.Refs(stale) },
		"IncRef": func() { s.IncRef(stale) },
		"DecRef": func() { s.DecRef(stale) },
		"CowWrite": func() {
			s.CowWrite(stale, 0, []byte{9})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a stale (reused) FrameID did not panic", name)
				}
			}()
			op()
		}()
	}
	if got := s.View(fresh); got[0] != 2 {
		t.Errorf("live frame corrupted by stale-ID probes: %d", got[0])
	}
}

func TestZeroFrameIDNeverValid(t *testing.T) {
	s := NewStore()
	defer func() {
		if recover() == nil {
			t.Error("FrameID(0) did not panic")
		}
	}()
	s.View(FrameID(0))
}

// TestRecycledBufferHygiene churns buffers through the pool and checks
// that zero-fill and pattern materialization never expose a previous
// tenant's bytes.
func TestRecycledBufferHygiene(t *testing.T) {
	s := NewStore()
	dirty := s.AllocData(testPage(0xAB))
	s.DecRef(dirty) // 0xAB-filled buffer goes to the pool

	zf := s.AllocZeroFill(100, []byte{7})
	got := s.View(zf)
	want := make([]byte, PageSize)
	want[100] = 7
	if !bytes.Equal(got, want) {
		t.Error("AllocZeroFill through a recycled buffer leaked stale bytes")
	}
	s.DecRef(zf)

	s.DecRef(s.AllocData(testPage(0xCD))) // re-dirty the pool
	pat := s.AllocPattern(99)
	a := append([]byte(nil), s.View(pat)...)
	s2 := NewStore()
	pat2 := s2.AllocPattern(99)
	if !bytes.Equal(a, s2.View(pat2)) {
		t.Error("pattern materialized through a recycled buffer diverged from a fresh store")
	}
}

// TestRecycledSlotDeltaHygiene frees a delta frame with records both
// inline and spilled, then puts every kind of tenant in its slot: none
// may see the old source or replay an old record, and with the overflow
// buffer back in its pool the next such fault allocates nothing.
func TestRecycledSlotDeltaHygiene(t *testing.T) {
	s := NewStore()
	srcA := s.AllocData(testPage(0xA1))
	srcB := s.AllocData(testPage(0xB2))

	dirty := func() uint32 {
		id := s.AllocCopyWrite(srcA, 10, []byte{1, 2, 3, 4, 5, 6, 7, 8})
		for i := 0; i < 6; i++ { // past deltaInline: spills
			s.CowWrite(id, 100+20*i, []byte{0xDE, 0xAD, 0xBE, 0xEF, byte(i)})
		}
		if f := s.must(id); f.src == 0 || f.inlLen == 0 || len(f.delta) == 0 {
			t.Fatalf("setup: want a lazy frame with inline and spilled records, have src=%d inl=%d spill=%d", f.src, f.inlLen, len(f.delta))
		}
		s.DecRef(id)
		return id.index()
	}

	tenants := map[string]struct {
		alloc func() FrameID
		want  func() []byte
	}{
		"zero-fill": {
			func() FrameID { return s.AllocZeroFill(3, []byte{7}) },
			func() []byte { p := make([]byte, PageSize); p[3] = 7; return p },
		},
		"data": {
			func() FrameID { return s.AllocData(testPage(0x33)) },
			func() []byte { return testPage(0x33) },
		},
		"pattern": {
			func() FrameID { return s.AllocPattern(4242) },
			func() []byte { p := make([]byte, PageSize); fillPattern(p, 4242); return p },
		},
		"delta over another source": {
			func() FrameID { return s.AllocCopyWrite(srcB, 4000, []byte{9}) },
			func() []byte { p := testPage(0xB2); p[4000] = 9; return p },
		},
		"delta with no records": {
			func() FrameID { return s.AllocCopyWrite(srcB, 0, nil) },
			func() []byte { return testPage(0xB2) },
		},
	}
	for name, tc := range tenants {
		slot := dirty()
		id := tc.alloc()
		if id.index() != slot {
			t.Fatalf("%s: test setup: slot %d not reused (got %d)", name, slot, id.index())
		}
		if !bytes.Equal(s.View(id), tc.want()) {
			t.Errorf("%s in a recycled slot shows a previous tenant's delta", name)
		}
		s.DecRef(id)
	}

	dirty()
	if avg := testing.AllocsPerRun(100, func() { dirty() }); avg != 0 {
		t.Errorf("a fault with spilled records in a recycled slot allocates %.1f objects, want 0", avg)
	}
}

func TestAllocZeroFillMatchesAllocData(t *testing.T) {
	for _, share := range []bool{false, true} {
		s := NewStore()
		s.ShareContent = share
		// Zero content coalesces onto the zero frame either way.
		if id := s.AllocZeroFill(50, []byte{0, 0}); !s.IsZeroFrame(id) {
			t.Errorf("share=%v: all-zero fill did not hit the zero frame", share)
		}
		// Identical content dedups under ShareContent, exactly like the
		// AllocData path.
		a := s.AllocZeroFill(10, []byte{1, 2, 3})
		page := make([]byte, PageSize)
		copy(page[10:], []byte{1, 2, 3})
		b := s.AllocData(page)
		if share && a != b {
			t.Error("share=true: AllocZeroFill content missed dedup against AllocData")
		}
		if !share && a == b {
			t.Error("share=false: unexpected frame sharing")
		}
		if !bytes.Equal(s.View(a), page) {
			t.Error("AllocZeroFill content wrong")
		}
	}
}

// slowPrivatePages is the pre-slab O(pages) recount of
// AddressSpace.PrivatePages, kept as the oracle for the incremental
// counter.
func slowPrivatePages(a *AddressSpace) int {
	n := 0
	for _, pte := range a.pages {
		if !a.store.IsZeroFrame(pte.Frame) && a.store.Refs(pte.Frame) == 1 {
			n++
		}
	}
	return n
}

// slowResidentPages is the pre-slab recount of ResidentPages.
func slowResidentPages(a *AddressSpace) int {
	n := len(a.pages)
	if a.base != nil {
		n = a.base.resident
		for vpn := range a.pages {
			if a.base.frame(vpn) == 0 {
				n++
			}
		}
	}
	return n
}

// TestIncrementalAccountingMatchesRecount is the accounting property
// test: across random clone/write/share/release workloads — including
// inline dedup, KSM-style merge passes, and snapshotting, all of which
// move frames between private and shared from *outside* the owning
// space — the O(1) counters must always equal the brute-force recount.
func TestIncrementalAccountingMatchesRecount(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		s := NewStore()
		s.ShareContent = trial%2 == 0

		const numPages = 64
		img := BuildImage(s, numPages, 16, 1000*uint64(trial)+1)
		var spaces []*AddressSpace

		check := func(step int) {
			t.Helper()
			for si, a := range spaces {
				if a == nil || a.released {
					continue
				}
				if got, want := a.PrivatePages(), slowPrivatePages(a); got != want {
					t.Fatalf("trial %d step %d space %d: PrivatePages=%d, recount=%d", trial, step, si, got, want)
				}
				if got, want := a.ResidentPages(), slowResidentPages(a); got != want {
					t.Fatalf("trial %d step %d space %d: ResidentPages=%d, recount=%d", trial, step, si, got, want)
				}
			}
			if got, want := s.ModeledBytes(), uint64(s.FrameCount())*PageSize; got != want {
				t.Fatalf("trial %d step %d: ModeledBytes=%d, FrameCount*PageSize=%d", trial, step, got, want)
			}
		}

		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 2: // new clone or scratch space
				if rng.Intn(2) == 0 {
					spaces = append(spaces, img.NewClone())
				} else {
					spaces = append(spaces, NewAddressSpace(s, numPages))
				}
			case op < 8: // write somewhere
				if len(spaces) == 0 {
					continue
				}
				a := spaces[rng.Intn(len(spaces))]
				if a.released {
					continue
				}
				vpn := uint64(rng.Intn(numPages))
				// Small content alphabet so dedup and SharePass really
				// fire; include zeroes so writes land on the zero frame.
				content := []byte{byte(rng.Intn(4)), byte(rng.Intn(2))}
				a.Write(vpn, rng.Intn(PageSize-2), content)
			case op < 9: // KSM-style merge pass across everything
				SharePass(s, spaces)
			default: // release one space
				if len(spaces) == 0 {
					continue
				}
				spaces[rng.Intn(len(spaces))].Release()
			}
			check(step)
		}

		// Snapshot a scratch space mid-life: its private pages all become
		// shared in one external stroke.
		scratch := NewAddressSpace(s, numPages)
		spaces = append(spaces, scratch)
		for i := 0; i < 10; i++ {
			scratch.Write(uint64(i), 0, []byte{byte(100 + i)})
		}
		check(-1)
		snap := Snapshot(scratch)
		check(-2)
		if got := scratch.PrivatePages(); got != 0 {
			t.Fatalf("trial %d: snapshot left %d private pages in source", trial, got)
		}

		// Drain and verify the refcount census end-to-end.
		for _, a := range spaces {
			a.Release()
		}
		snap.Release()
		img.Release()
		if err := s.CheckRefs(ExternalRefs(nil, nil)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got := s.FrameCount(); got != 1 { // zero frame only
			t.Fatalf("trial %d: %d frames leaked", trial, got-1)
		}
	}
}
