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

// Every dirty page of every VM holds a page-table entry for as long as
// the VM lives, and every page something read or shared a slab slot
// besides, so their sizes are what a dirty page costs the host.
func TestFrameSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(frame{}); got > 40 {
		t.Errorf("frame slot is %d bytes, want at most 40", got)
	}
	if got := unsafe.Sizeof(entry{}); got > 32 {
		t.Errorf("page-table entry is %d bytes, want at most 32", got)
	}
}

// Every simulated server has a store, so what a store's arenas carve
// before they hold much is paid per server, however few VMs it runs: the
// slab's first chunk, which holds the zero frame, and a chunk of every
// overflow class a page's records pass through, most of it unused.
func TestStoreHostBytes(t *testing.T) {
	s := NewStore()
	if slab, _ := s.ChunkBytes(); slab > 1024 {
		t.Errorf("a fresh store holds %d B of slab, want at most 1 KiB", slab)
	}
	a := BuildImage(s, 8, 4, 800).NewClone()
	defer a.Release()
	// An 11-byte record leaves the inline area no room for a touch, so
	// the first touch spills the page into class 0 and each after it
	// moves the page up a class, the record staying inline throughout; a
	// last 9-byte record brings it to the cap in class 30. No page that
	// passes through class 0 can reach class 31 (its inline records are
	// more than 10 bytes, and the cap counts them), so a second page's
	// single 320-byte record starts there.
	a.Write(1, 0, bytes.Repeat([]byte{0xAA}, 9))
	for c := 0; c < deltaClasses; c++ {
		vpn, b := uint64(1), bytes.Repeat([]byte{byte(c + 1)}, 8)
		switch c {
		case deltaClasses - 2:
			b = b[:7]
		case deltaClasses - 1:
			vpn, b = 2, bytes.Repeat([]byte{0xBB}, deltaCap-deltaHdr)
		}
		a.Write(vpn, 10*(c+2), b)
		if e := ownedEntry(t, a, vpn); !e.isDelta() || e.ovfLen() == 0 || int(e.overflow()>>overflowPosBits) != c {
			t.Fatalf("write %d: page %d is not a delta in overflow class %d", c+2, vpn, c)
		}
		if e := ownedEntry(t, a, 1); e.inlLen() != recordSize(9) {
			t.Fatalf("write %d: page 1 holds %d bytes inline, want its first record's %d", c+2, e.inlLen(), recordSize(9))
		}
	}
	if e := ownedEntry(t, a, 1); e.inlLen()+e.ovfLen() != deltaCap {
		t.Fatalf("the walk ends with %d bytes of records, want the cap", e.inlLen()+e.ovfLen())
	}
	slab, overflow := s.ChunkBytes()
	if slab > 1024 {
		t.Errorf("after one page's walk the store holds %d B of slab, want at most 1 KiB", slab)
	}
	tails := 0
	for c, chunks := range overflow {
		if len(chunks) != 1 || chunks[0] > 1024 {
			t.Errorf("class %d (%d B buffers) holds chunks of %v B, want one of at most 1 KiB",
				c, (c+1)*deltaStep, chunks)
			continue
		}
		tails += chunks[0] - (c+1)*deltaStep
	}
	if tails != 17860 {
		t.Errorf("uncarved tails of one buffer in every class add to %d B, want 17,860", tails)
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

// TestRecycledSlotDeltaHygiene releases a clone whose pages hold records
// both inline and spilled, then puts every kind of tenant in the same
// chunk and overflow buffers: a recycled chunk never replays a previous
// tenant's records, and with everything back in its pool the next such
// clone allocates nothing.
func TestRecycledSlotDeltaHygiene(t *testing.T) {
	s := NewStore()
	img := BuildImage(s, 16, 8, 0xA1)

	dirty := func() *tableChunk {
		a := img.NewClone()
		for vpn := uint64(0); vpn < 8; vpn++ {
			a.Write(vpn, 10, []byte{1, 2, 3, 4, 5, 6, 7, 8})
			for i := 0; i < 6; i++ { // past deltaInline: spills
				a.Write(vpn, 100+20*i, []byte{0xDE, 0xAD, 0xBE, 0xEF, byte(i)})
			}
			if e := ownedEntry(t, a, vpn); !e.isDelta() || e.inlLen() == 0 || e.ovfLen() == 0 {
				t.Fatalf("setup: want a lazy page with inline and spilled records, have lazy=%v inl=%d spill=%d", e.isDelta(), e.inlLen(), e.ovfLen())
			}
		}
		chunk := a.chunks[0]
		a.Release()
		return chunk
	}

	base := func(vpn uint64) []byte { return imagePage(img, vpn) }
	tenants := map[string]struct {
		write func(a *AddressSpace)
		vpn   uint64
		want  func() []byte
	}{
		"zero-fill": {
			func(a *AddressSpace) { a.Write(12, 3, []byte{7}) }, 12,
			func() []byte { p := make([]byte, PageSize); p[3] = 7; return p },
		},
		"zero frame": {
			func(a *AddressSpace) { a.Write(12, 3, []byte{0}) }, 12,
			func() []byte { return make([]byte, PageSize) },
		},
		"delta with one record": {
			func(a *AddressSpace) { a.Write(5, 4000, []byte{9}) }, 5,
			func() []byte { p := base(5); p[4000] = 9; return p },
		},
		"delta with no records": {
			func(a *AddressSpace) { a.Write(5, 0, nil) }, 5,
			func() []byte { return base(5) },
		},
		"delta that spills at once": {
			func(a *AddressSpace) { a.Write(2, 50, bytes.Repeat([]byte{0x44}, 25)) }, 2,
			func() []byte { p := base(2); copy(p[50:], bytes.Repeat([]byte{0x44}, 25)); return p },
		},
		"eager copy": {
			func(a *AddressSpace) { a.Write(2, 0, bytes.Repeat([]byte{0x55}, deltaCap)) }, 2,
			func() []byte { p := base(2); copy(p, bytes.Repeat([]byte{0x55}, deltaCap)); return p },
		},
	}
	for name, tc := range tenants {
		chunk := dirty()
		a := img.NewClone()
		tc.write(a)
		if a.chunks[0] != chunk {
			t.Fatalf("%s: test setup: chunk not reused", name)
		}
		if !bytes.Equal(a.PeekPage(tc.vpn), tc.want()) || !bytes.Equal(a.Read(tc.vpn, 0, PageSize), tc.want()) {
			t.Errorf("%s in a recycled chunk shows a previous tenant's records", name)
		}
		a.Release()
	}

	dirty()
	if avg := testing.AllocsPerRun(100, func() { dirty() }); avg != 0 {
		t.Errorf("a clone with spilled records in recycled chunks allocates %.1f objects, want 0", avg)
	}
}

// A synthetic image is (seed, resident pages): building one costs the
// host the same few words whatever its size — no per-page slice, no slab
// slot, one object — the store counts its frames exactly as it counts an
// explicit image's, and clones read the pattern through it. Only the
// image's and the store's own state is asserted on, and objects are
// counted by AllocsPerRun, so allocations made elsewhere in the process
// cannot fail the test.
func TestSyntheticImageHoldsNoPerPageState(t *testing.T) {
	const numPages, resident, seed = 32768, 8192, 7

	explicit := NewStore()
	src := NewPatternSpace(explicit, numPages, resident, seed)
	ref := Snapshot(src)
	src.Release()

	s := NewStore()
	carved := s.slots
	img := BuildImage(s, numPages, resident, seed)
	if img.pages != nil || s.slots != carved {
		t.Errorf("BuildImage of %d resident pages holds %d per-page frame IDs and carved %d slab slots: want none", resident, len(img.pages), s.slots-carved)
	}
	other := NewStore()
	if n := testing.AllocsPerRun(20, func() { BuildImage(other, numPages, resident, seed) }); n > 1 {
		t.Errorf("BuildImage of %d resident pages allocates %v objects: want the image alone", resident, n)
	}
	if s.FrameCount() != explicit.FrameCount() || s.ModeledBytes() != explicit.ModeledBytes() {
		t.Errorf("frames %d (%d bytes), explicit image %d (%d bytes)", s.FrameCount(), s.ModeledBytes(), explicit.FrameCount(), explicit.ModeledBytes())
	}
	if got, want := s.Stats(), explicit.Stats(); got.Allocs != want.Allocs || got.PeakFrames != want.PeakFrames || got.PeakModeled != want.PeakModeled {
		t.Errorf("store stats %+v, explicit image %+v", got, want)
	}
	if img.ResidentPages() != ref.ResidentPages() || img.NumPages() != ref.NumPages() {
		t.Errorf("resident/total %d/%d, explicit image %d/%d", img.ResidentPages(), img.NumPages(), ref.ResidentPages(), ref.NumPages())
	}

	c, rc := img.NewClone(), ref.NewClone()
	want := make([]byte, PageSize)
	for _, vpn := range []uint64{0, 1, 4097, resident - 1, resident, numPages - 1} {
		clear(want)
		if vpn < resident {
			fillPattern(want, seed+vpn+1)
		}
		if !bytes.Equal(c.PeekPage(vpn), want) || !bytes.Equal(c.Read(vpn, 0, PageSize), want) {
			t.Errorf("page %d read through the image is not its pattern", vpn)
		}
		if !bytes.Equal(rc.Read(vpn, 0, PageSize), want) {
			t.Errorf("page %d differs between the two image kinds", vpn)
		}
	}
	if c.ResidentPages() != resident || c.SharedPages() != resident || c.OwnedPages() != 0 {
		t.Errorf("clone resident/shared/owned = %d/%d/%d", c.ResidentPages(), c.SharedPages(), c.OwnedPages())
	}
	if err := s.CheckRefs(ExternalRefs([]*AddressSpace{c}, []*Image{img})); err != nil {
		t.Error(err)
	}

	c.Release()
	if s.FrameCount() != 1+resident || s.Stats().Frees != 0 {
		t.Errorf("after release: %d frames, %d frees, want %d and 0", s.FrameCount(), s.Stats().Frees, 1+resident)
	}
	if err := s.CheckRefs(ExternalRefs(nil, []*Image{img})); err != nil {
		t.Error(err)
	}
}

// A clone's burst of dirty pages and its release move the store's
// counters by the page count and the slab not at all.
func TestCloneReleaseLeavesSlabUntouched(t *testing.T) {
	s := NewStore()
	img := BuildImage(s, 256, 128, 3)
	img.NewClone().Release() // the pooled space; the slab holds the zero frame
	slots, chunks, head, before := s.slots, len(s.slab), s.freeHead, s.Stats()

	const burst = 48
	a := img.NewClone()
	for vpn := uint64(0); vpn < burst; vpn++ {
		a.Write(vpn, 64, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	}
	for vpn := uint64(0); vpn < 6; vpn++ { // touches: the third record spills
		a.Write(vpn, 128, []byte{1, 2, 3, 4, 5, 6, 7, 8})
		a.Write(vpn, 256, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	}
	if got := s.Stats(); got.Allocs != before.Allocs+burst || got.CowCopies != before.CowCopies+burst || s.FrameCount() != 1+128+burst {
		t.Errorf("burst: stats %+v -> %+v, %d frames", before, got, s.FrameCount())
	}
	a.Release()
	if got := s.Stats(); got.Frees != before.Frees+burst || s.FrameCount() != 1+128 {
		t.Errorf("release: frees %d -> %d, %d frames", before.Frees, got.Frees, s.FrameCount())
	}
	if s.slots != slots || len(s.slab) != chunks || s.freeHead != head {
		t.Errorf("slab moved: slots %d -> %d, chunks %d -> %d, free head %d -> %d", slots, s.slots, chunks, len(s.slab), head, s.freeHead)
	}
	for c := range s.overflow {
		if oc := &s.overflow[c]; len(oc.free) != int(oc.carved) {
			t.Errorf("overflow class %d: %d of %d buffers back", c, len(oc.free), oc.carved)
		}
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
	for i := 0; i < a.n; i++ {
		if e := a.at(i); e.isDelta() || !a.store.IsZeroFrame(e.frame()) && a.store.Refs(e.frame()) == 1 {
			n++
		}
	}
	return n
}

// slowResidentPages is the pre-slab recount of ResidentPages.
func slowResidentPages(a *AddressSpace) int {
	n := a.n
	if a.base != nil {
		n = a.base.resident
		for i := 0; i < a.n; i++ {
			if !a.base.has(a.at(i).page()) {
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

		// Drain and verify the refcount census end-to-end: every live
		// frame is the zero frame or one of the two images'.
		for _, a := range spaces {
			a.Release()
		}
		if err := s.CheckRefs(ExternalRefs(nil, []*Image{img, snap})); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}
