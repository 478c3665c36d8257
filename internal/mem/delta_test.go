package mem

import (
	"bytes"
	"testing"
)

// Tests for delta frames: a CoW fault against an image records the
// source frame and the bytes written, and the page is produced on first
// read. These cover the lazy states directly; model_test.go checks the
// same behaviour against a plain model over random operation sequences.

// imagePage is what a clone reads at vpn before writing anything.
func imagePage(img *Image, vpn uint64) []byte {
	c := img.NewClone()
	defer c.Release()
	return c.Read(vpn, 0, PageSize)
}

// ownedFrame is the slab slot behind a page the space owns.
func ownedFrame(t *testing.T, a *AddressSpace, vpn uint64) *frame {
	t.Helper()
	pte, ok := a.pages[vpn]
	if !ok {
		t.Fatalf("page %d is not owned", vpn)
	}
	return a.store.must(pte.Frame)
}

func TestCowFaultIsLazyUntilRead(t *testing.T) {
	s := NewStore()
	img := BuildImage(s, 8, 4, 500)
	want := imagePage(img, 2)

	a := img.NewClone()
	if !a.Write(2, 100, []byte{1, 2, 3}) {
		t.Fatal("first write to an image page did not fault")
	}
	a.Write(2, 101, []byte{9}) // a second record, overlapping the first
	a.Write(2, 4000, nil)      // zero-length: no record, no change
	copy(want[100:], []byte{1, 9, 3})

	f := ownedFrame(t, a, 2)
	if f.src == 0 || f.data != nil {
		t.Fatalf("fault copied the page: src=%d data=%v", f.src, f.data != nil)
	}
	if f.refs != 1 || s.Refs(img.pages[2]) != 1 {
		t.Errorf("delta frame changed reference counts: frame %d, source %d", f.refs, s.Refs(img.pages[2]))
	}
	if got := s.Stats().CowCopies; got != 1 {
		t.Errorf("CowCopies = %d, want 1", got)
	}
	if a.PrivatePages() != 1 || s.FrameCount() != 1+4+1 {
		t.Errorf("accounting: private=%d frames=%d, want 1 and 6", a.PrivatePages(), s.FrameCount())
	}

	if got := a.Read(2, 0, PageSize); !bytes.Equal(got, want) {
		t.Error("read of a delta frame is not source bytes + writes")
	}
	if f.src != 0 || f.data == nil || f.inlLen != 0 || len(f.delta) != 0 {
		t.Error("read did not turn the delta frame into a data frame")
	}
	// An ordinary frame from here on: writes land in the bytes.
	a.Write(2, 0, []byte{0xEE})
	want[0] = 0xEE
	if got := a.Read(2, 0, PageSize); !bytes.Equal(got, want) {
		t.Error("write after materialization lost")
	}
}

// TestDeltaCap walks a page's records up to the cap: exactly deltaCap
// bytes of records stay lazy, one more materializes, and a single write
// too large for any delta is copied eagerly at the fault.
func TestDeltaCap(t *testing.T) {
	s := NewStore()
	img := BuildImage(s, 8, 4, 600)

	a := img.NewClone()
	want := imagePage(img, 1)
	rec := make([]byte, 28) // 32-byte records: 8 of them are deltaCap
	for i := 0; i < deltaCap/(deltaHdr+len(rec)); i++ {
		for j := range rec {
			rec[j] = byte(i + 1)
		}
		a.Write(1, i*40, rec)
		copy(want[i*40:], rec)
	}
	f := ownedFrame(t, a, 1)
	if f.src == 0 || int(f.inlLen)+len(f.delta) != deltaCap {
		t.Fatalf("records filling the cap exactly: src=%d bytes=%d, want lazy with %d", f.src, int(f.inlLen)+len(f.delta), deltaCap)
	}
	a.Write(1, PageSize-1, []byte{0x77}) // off+len == PageSize, and over the cap
	want[PageSize-1] = 0x77
	if f.src != 0 || f.data == nil {
		t.Error("a record past the cap did not materialize the frame")
	}
	if got := a.Read(1, 0, PageSize); !bytes.Equal(got, want) {
		t.Error("content wrong after outgrowing the cap")
	}

	big := bytes.Repeat([]byte{0x5A}, deltaCap-deltaHdr+1)
	want = imagePage(img, 3)
	copy(want[7:], big)
	a.Write(3, 7, big)
	if f := ownedFrame(t, a, 3); f.src != 0 || f.data == nil {
		t.Error("a write larger than the cap was not copied at the fault")
	}
	if got := a.Read(3, 0, PageSize); !bytes.Equal(got, want) {
		t.Error("content wrong after an eager fault")
	}
	full := bytes.Repeat([]byte{0xC3}, PageSize)
	a.Write(0, 0, full)
	if got := a.Read(0, 0, PageSize); !bytes.Equal(got, full) {
		t.Error("full-page fault lost bytes")
	}
}

// The overflow buffer is the smallest size class that holds the spilled
// records, moves up a class only when they outgrow it, and every class
// goes back to its own pool.
func TestDeltaOverflowSizeClasses(t *testing.T) {
	s := NewStore()
	img := BuildImage(s, 8, 4, 650)
	a := img.NewClone()
	touch := []byte{1, 2, 3, 4, 5, 6, 7, 8} // the guest's 12-byte record
	for i, wantCap := range []int{0, 0, 32, 32, 64, 64, 64, 128} {
		a.Write(1, 16*i, touch)
		if f := ownedFrame(t, a, 1); cap(f.delta) != wantCap || len(f.delta) != max(0, 12*(i-1)) {
			t.Fatalf("after %d touches: overflow len=%d cap=%d, want len=%d cap=%d",
				i+1, len(f.delta), cap(f.delta), max(0, 12*(i-1)), wantCap)
		}
	}
	if n32, n64 := len(s.deltaPool[0]), len(s.deltaPool[1]); n32 != 1 || n64 != 1 {
		t.Errorf("outgrown buffers pooled: %d of 32 B, %d of 64 B, want one each", n32, n64)
	}
	want := a.PeekPage(1)
	a.Release()
	if n := len(s.deltaPool[2]); n != 1 {
		t.Errorf("released frame's 128 B buffer pooled %d times, want 1", n)
	}
	for c := range s.deltaPool {
		for _, buf := range s.deltaPool[c] {
			if len(buf) != 0 || cap(buf) != deltaMinClass<<c {
				t.Errorf("class %d pool holds a buffer of len %d cap %d", c, len(buf), cap(buf))
			}
		}
	}
	b := img.NewClone()
	for i := 0; i < 8; i++ {
		b.Write(1, 16*i, touch)
	}
	if got := b.Read(1, 0, PageSize); !bytes.Equal(got, want) {
		t.Error("records replayed through recycled class buffers differ")
	}
}

// A delta frame reads through its image, so it must never gain a second
// holder that could outlive the image: IncRef materializes first.
func TestIncRefMaterializesDeltaFrame(t *testing.T) {
	s := NewStore()
	img := BuildImage(s, 8, 4, 700)
	a := img.NewClone()
	a.Write(0, 8, []byte{4, 5, 6})
	want := a.PeekPage(0)

	id := a.pages[0].Frame
	s.IncRef(id)
	if f := s.must(id); f.src != 0 || f.data == nil {
		t.Fatal("IncRef left a delta frame lazy")
	}
	a.Release()
	img.Release() // the extra reference now outlives clone and image
	if !bytes.Equal(s.View(id), want) {
		t.Error("frame content changed once its image was gone")
	}
	s.DecRef(id)
	if err := s.CheckRefs(ExternalRefs(nil, nil)); err != nil {
		t.Fatal(err)
	}
}

// SharePass compares bytes, so it materializes what it scans, and the
// frame it keeps as canonical is a data frame both spaces can hold.
func TestSharePassMergesDeltaFrames(t *testing.T) {
	s := NewStore()
	img := BuildImage(s, 8, 4, 800)
	a, b := img.NewClone(), img.NewClone()
	a.Write(1, 16, []byte{1, 1})
	b.Write(1, 16, []byte{1, 1})
	b.Write(2, 16, []byte{2})
	want := a.PeekPage(1)

	res := SharePass(s, []*AddressSpace{a, b})
	if res.PagesMerged != 1 {
		t.Fatalf("merged %d pages, want 1", res.PagesMerged)
	}
	if a.pages[1].Frame != b.pages[1].Frame {
		t.Fatal("identical delta frames were not merged")
	}
	for vpn, pte := range b.pages {
		if s.must(pte.Frame).src != 0 {
			t.Errorf("page %d still lazy after a share pass", vpn)
		}
	}
	b.Write(1, 0, []byte{0xFF}) // CoW off the merged frame
	if got := a.Read(1, 0, PageSize); !bytes.Equal(got, want) {
		t.Error("write through one mapping of a merged frame leaked into the other")
	}
	a.Release()
	b.Release()
	img.Release()
	if err := s.CheckRefs(ExternalRefs(nil, nil)); err != nil {
		t.Fatal(err)
	}
}

// The lifetime rule is enforced, not assumed: if an image is torn down
// under an attached clone, reading the clone's delta frames panics on
// the stale source ID instead of aliasing whatever reuses the slot.
func TestDeltaFrameAfterForcedImageReleasePanics(t *testing.T) {
	s := NewStore()
	img := BuildImage(s, 8, 4, 900)
	a := img.NewClone()
	a.Write(0, 0, []byte{1})

	img.live = 0 // what Release refuses to do while a clone is attached
	img.Release()
	for i := uint64(1); i <= 4; i++ {
		s.AllocPattern(12345 + i) // reoccupy the image's slots
	}
	for name, op := range map[string]func(){
		"Read":   func() { a.Read(0, 0, 8) },
		"IncRef": func() { s.IncRef(a.pages[0].Frame) },
		"big Write": func() {
			a.Write(0, 0, make([]byte, deltaCap))
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a delta frame whose image is gone did not panic", name)
				}
			}()
			op()
		}()
	}
}

// A released clone goes to the next NewClone, page table attached and
// empty, with nothing of its last tenant's accounting.
func TestPageTableRecycledEmpty(t *testing.T) {
	s := NewStore()
	img := BuildImage(s, 64, 32, 1000)
	a := img.NewClone()
	for vpn := uint64(0); vpn < 40; vpn++ {
		a.Write(vpn, 0, []byte{byte(vpn + 1)})
	}
	a.Read(0, 0, 8)
	a.Release()
	if len(s.spaceFree) != 1 {
		t.Fatalf("released clone not on the store's free list (%d)", len(s.spaceFree))
	}
	b := img.NewClone()
	if b != a {
		t.Fatal("NewClone did not reuse the released clone")
	}
	if len(s.spaceFree) != 0 || b.OwnedPages() != 0 || b.ResidentPages() != 32 || b.PrivatePages() != 0 {
		t.Fatalf("recycled clone not empty: owned=%d resident=%d private=%d", b.OwnedPages(), b.ResidentPages(), b.PrivatePages())
	}
	if b.Stats() != (SpaceStats{}) || b.released || b.Base() != img {
		t.Fatalf("recycled clone carries its last tenant's state: stats=%+v released=%v", b.Stats(), b.released)
	}
	if got, want := b.Read(3, 0, PageSize), imagePage(img, 3); !bytes.Equal(got, want) {
		t.Error("recycled clone sees a previous tenant's page")
	}
	if avg := testing.AllocsPerRun(100, func() {
		c := img.NewClone()
		c.Write(5, 0, []byte{1})
		c.Release()
	}); avg != 0 {
		t.Errorf("clone, fault, release on a warmed store allocates %.1f objects, want 0", avg)
	}

	// Scratch spaces are not clones, and a table that held a whole image
	// is not worth clearing for every later tenant.
	b.Release()
	s.spaceFree = s.spaceFree[:0]
	NewAddressSpace(s, 8).Release()
	huge := img.NewClone()
	for i := uint64(0); i <= pageTableMaxRecycle; i++ {
		huge.pages[i] = PTE{Frame: s.ZeroFrame()}
	}
	huge.Release()
	if len(s.spaceFree) != 0 {
		t.Errorf("pooled %d spaces that should have been dropped", len(s.spaceFree))
	}
}
