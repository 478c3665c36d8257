package mem

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// Tests for lazy deltas: a CoW fault against an image is an entry in the
// clone's page table recording the bytes written, and the page is
// produced — the entry promoted to a slab frame — on first read. These
// cover the lazy states directly; model_test.go checks the same
// behaviour against a plain model over random operation sequences.

// imageKinds builds the same 8-page, 4-resident image both ways, so
// lazy deltas meet a described base page and a slab-frame one.
var imageKinds = map[string]func(s *Store, seed uint64) *Image{
	"synthetic": func(s *Store, seed uint64) *Image { return BuildImage(s, 8, 4, seed) },
	"snapshot": func(s *Store, seed uint64) *Image {
		src := NewPatternSpace(s, 8, 4, seed)
		defer src.Release()
		return Snapshot(src)
	},
}

// imagePage is what a clone reads at vpn before writing anything.
func imagePage(img *Image, vpn uint64) []byte {
	c := img.NewClone()
	defer c.Release()
	return c.Read(vpn, 0, PageSize)
}

// ownedEntry is the page-table entry of a page the space owns.
func ownedEntry(t *testing.T, a *AddressSpace, vpn uint64) *entry {
	t.Helper()
	e, _ := a.probe(vpn)
	if e == nil {
		t.Fatalf("page %d is not owned", vpn)
	}
	return e
}

func TestCowFaultIsLazyUntilRead(t *testing.T) {
	for kind, build := range imageKinds {
		s := NewStore()
		img := build(s, 500)
		want := imagePage(img, 2)
		slots := s.slots

		a := img.NewClone()
		if !a.Write(2, 100, []byte{1, 2, 3}) {
			t.Fatalf("%s: first write to an image page did not fault", kind)
		}
		a.Write(2, 101, []byte{9}) // a second record, overlapping the first
		a.Write(2, 4000, nil)      // zero-length: no record, no change
		copy(want[100:], []byte{1, 9, 3})

		e := ownedEntry(t, a, 2)
		if !e.isDelta() || s.slots != slots || s.freeHead != noFreeSlot {
			t.Fatalf("%s: fault took a slab slot: delta=%v slots %d -> %d", kind, e.isDelta(), slots, s.slots)
		}
		if !img.synthetic && s.Refs(img.pages[2]) != 1 {
			t.Errorf("%s: fault changed the source frame's reference count to %d", kind, s.Refs(img.pages[2]))
		}
		if got := s.Stats().CowCopies; got != 1 {
			t.Errorf("%s: CowCopies = %d, want 1", kind, got)
		}
		if a.PrivatePages() != 1 || s.FrameCount() != 1+4+1 {
			t.Errorf("%s: accounting: private=%d frames=%d, want 1 and 6", kind, a.PrivatePages(), s.FrameCount())
		}

		allocs := s.Stats().Allocs
		if got := a.Read(2, 0, PageSize); !bytes.Equal(got, want) {
			t.Errorf("%s: read of a lazy delta is not image bytes + writes", kind)
		}
		if e.isDelta() || s.must(e.frame()).data == nil {
			t.Errorf("%s: read did not promote the delta to a data frame", kind)
		}
		if a.PrivatePages() != 1 || s.FrameCount() != 1+4+1 || s.Stats().Allocs != allocs {
			t.Errorf("%s: promotion moved a count: private=%d frames=%d allocs %d -> %d",
				kind, a.PrivatePages(), s.FrameCount(), allocs, s.Stats().Allocs)
		}
		// An ordinary frame from here on: writes land in the bytes.
		a.Write(2, 0, []byte{0xEE})
		want[0] = 0xEE
		if got := a.Read(2, 0, PageSize); !bytes.Equal(got, want) {
			t.Errorf("%s: write after promotion lost", kind)
		}
	}
}

// TestDeltaCap walks a page's records up to the cap: exactly deltaCap
// bytes of records stay lazy, one more promotes, and a single write too
// large for any delta is copied eagerly at the fault.
func TestDeltaCap(t *testing.T) {
	s := NewStore()
	img := BuildImage(s, 8, 4, 600)

	a := img.NewClone()
	want := imagePage(img, 1)
	rec := make([]byte, 28) // 32-byte records: 10 of them are deltaCap
	for i := 0; i < deltaCap/(deltaHdr+len(rec)); i++ {
		for j := range rec {
			rec[j] = byte(i + 1)
		}
		a.Write(1, i*40, rec)
		copy(want[i*40:], rec)
	}
	e := ownedEntry(t, a, 1)
	if !e.isDelta() || e.inlLen()+e.ovfLen() != deltaCap {
		t.Fatalf("records filling the cap exactly: lazy=%v bytes=%d, want lazy with %d", e.isDelta(), e.inlLen()+e.ovfLen(), deltaCap)
	}
	a.Write(1, PageSize-1, []byte{0x77}) // off+len == PageSize, and over the cap
	want[PageSize-1] = 0x77
	if e.isDelta() {
		t.Error("a record past the cap did not promote the page")
	}
	if got := a.Read(1, 0, PageSize); !bytes.Equal(got, want) {
		t.Error("content wrong after outgrowing the cap")
	}

	big := bytes.Repeat([]byte{0x5A}, deltaCap-deltaHdr+1)
	want = imagePage(img, 3)
	copy(want[7:], big)
	a.Write(3, 7, big)
	if ownedEntry(t, a, 3).isDelta() {
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
	if got, want := s.Stats().CowCopies, uint64(3); got != want {
		t.Errorf("CowCopies = %d, want %d: an eager fault is still one copy", got, want)
	}
}

// The overflow buffer is the smallest size class that holds the spilled
// records, moves up a class only when they outgrow it, and every class
// goes back to its own free list.
func TestDeltaOverflowSizeClasses(t *testing.T) {
	s := NewStore()
	img := BuildImage(s, 8, 4, 650)
	a := img.NewClone()
	touch := []byte{1, 2, 3, 4, 5, 6, 7, 8} // the guest's 10-byte record
	for i, wantSize := range []int{0, 0, 10, 20, 30, 40, 50, 60} {
		a.Write(1, 16*i, touch)
		e, size := ownedEntry(t, a, 1), 0
		if e.ovfLen() > 0 {
			size = overflowSize(e.overflow())
		}
		wantInl, wantOvf := 10*(i+1), 0
		if i >= 2 {
			wantInl, wantOvf = 20, 10*(i-1)
		}
		if size != wantSize || e.ovfLen() != wantOvf || e.inlLen() != wantInl {
			t.Fatalf("after %d touches: inline len=%d, overflow len=%d size=%d, want inline len=%d, overflow len=%d size=%d",
				i+1, e.inlLen(), e.ovfLen(), size, wantInl, wantOvf, wantSize)
		}
	}
	for c, size := range []int{10, 20, 30, 40, 50} {
		if n := len(s.overflow[c].free); n != 1 {
			t.Errorf("outgrown %d B buffers freed: %d, want one", size, n)
		}
	}
	if n := len(s.overflow[6].free) + int(s.overflow[6].carved); n != 0 {
		t.Errorf("the 70 B class was used %d times, want never: a spill leaves both inline touches inline", n)
	}
	want := a.PeekPage(1)
	a.Release()
	if n := len(s.overflow[5].free); n != 1 {
		t.Errorf("released page's 60 B buffer freed %d times, want 1", n)
	}
	b := img.NewClone()
	for i := 0; i < 8; i++ {
		b.Write(1, 16*i, touch)
	}
	for c := range s.overflow {
		if got := s.overflow[c].carved; got > 1 {
			t.Errorf("class %d carved %d buffers for one page at a time", c, got)
		}
	}
	if got := b.Read(1, 0, PageSize); !bytes.Equal(got, want) {
		t.Error("records replayed through recycled class buffers differ")
	}
}

// A spill keeps the records in the order they were written: the inline
// ones stay, and the buffer takes the ones after them. Every touch
// lands on bytes the one before wrote, so applying them out of order
// reads back wrong. A page takes
// deltaCap/10 touches lazily, in a buffer of exactly its overflow
// records, and is promoted at the next.
func TestDeltaSpillKeepsRecordOrder(t *testing.T) {
	s := NewStore()
	img := BuildImage(s, 8, 4, 660)
	a := img.NewClone()
	want := imagePage(img, 1)
	check := func(at string, vpn uint64) {
		t.Helper()
		if !bytes.Equal(a.PeekPage(vpn), want) {
			t.Fatalf("%s: page %d reads back differently from its writes in order", at, vpn)
		}
	}
	touches := deltaCap / recordSize(8)
	for k := 1; k <= touches+1; k++ {
		off := 100 + 3*k // each touch overwrites five bytes of the last
		touch := make([]byte, 8)
		for i := range touch {
			touch[i] = byte(k*8 + i)
		}
		a.Write(1, off, touch)
		copy(want[off:], touch)
		at := fmt.Sprintf("after %d touches", k)
		check(at, 1)
		e := ownedEntry(t, a, 1)
		if k > touches {
			if e.isDelta() {
				t.Fatalf("%s: the page is still a lazy delta with %d bytes of records", at, e.inlLen()+e.ovfLen())
			}
			break
		}
		wantInl, wantOvf := 10*k, 0
		if k > 2 {
			wantInl, wantOvf = 20, 10*(k-2)
		}
		if !e.isDelta() || e.inlLen() != wantInl || e.ovfLen() != wantOvf {
			t.Fatalf("%s: lazy=%v with %d bytes inline and %d overflow, want %d and %d",
				at, e.isDelta(), e.inlLen(), e.ovfLen(), wantInl, wantOvf)
		}
		if wantOvf > 0 && overflowSize(e.overflow()) != wantOvf {
			t.Fatalf("%s: %d bytes of overflow in a %d B buffer", at, wantOvf, overflowSize(e.overflow()))
		}
	}

	// A 15-byte write's 17-byte record is inline when the page spills: it
	// stays there, and the touch starts the buffer.
	want = imagePage(img, 2)
	long := bytes.Repeat([]byte{0xE1}, 15)
	a.Write(2, 40, long)
	copy(want[40:], long)
	touch := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	a.Write(2, 50, touch)
	copy(want[50:], touch)
	check("a touch after a 15-byte write", 2)
	if e := ownedEntry(t, a, 2); e.inlLen() != 17 || e.ovfLen() != 10 {
		t.Fatalf("spill behind a 17-byte record: %d bytes inline and %d overflow, want 17 and 10", e.inlLen(), e.ovfLen())
	}
	a.Write(2, 44, touch)
	copy(want[44:], touch)
	check("a second touch after the spill", 2)
	if e := ownedEntry(t, a, 2); e.inlLen() != 17 || e.ovfLen() != 20 {
		t.Fatalf("a second touch after the spill: %d bytes inline and %d overflow, want 17 and 20", e.inlLen(), e.ovfLen())
	}
	if got := a.Read(2, 0, PageSize); !bytes.Equal(got, want) {
		t.Error("promoted page differs from its writes in order")
	}
}

// A spilled page keeps both inline touches: its overflow handle sits in
// the high word of the entry's vpn, where a lazy delta's page number
// (an image's, below 2^32) leaves room, so hi stays all records. Each
// touch from the third on goes to a buffer of exactly its overflow, and
// the index, which keys on the page number, still finds the page.
func TestSpilledDeltaKeepsInlineRecords(t *testing.T) {
	s := NewStore()
	img := BuildImage(s, 8, 4, 670)
	a := img.NewClone()
	// Another page spills first, so that no handle of the page under test
	// is the all-zero one the high word holds before a spill.
	for i := 0; i < 3; i++ {
		a.Write(0, 10*i, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	}
	const vpn = 3
	want := imagePage(img, vpn)
	var inline [deltaInline]byte
	for k := 1; k <= deltaCap/recordSize(8); k++ {
		off := 200 + 5*k
		touch := make([]byte, 8)
		for i := range touch {
			touch[i] = byte(k*16 + i)
		}
		a.Write(vpn, off, touch)
		copy(want[off:], touch)
		at := fmt.Sprintf("after %d touches", k)
		if !bytes.Equal(a.PeekPage(vpn), want) {
			t.Fatalf("%s: page reads back differently from its writes", at)
		}
		e := ownedEntry(t, a, vpn)
		if k == 2 {
			inline = e.hi
		}
		if k < 3 {
			continue
		}
		wantOvf := 10 * (k - 2)
		if !e.isDelta() || e.inlLen() != deltaInline || e.hi != inline || e.ovfLen() != wantOvf {
			t.Fatalf("%s: lazy=%v with %d bytes inline (unmoved: %v) and %d overflow, want %d unmoved and %d",
				at, e.isDelta(), e.inlLen(), e.hi == inline, e.ovfLen(), deltaInline, wantOvf)
		}
		h := e.overflow()
		if overflowSize(h) != wantOvf || int(h>>overflowPosBits) != deltaClass(wantOvf) {
			t.Fatalf("%s: %d bytes of overflow in a %d B buffer, want one of exactly that class", at, wantOvf, overflowSize(h))
		}
		if e.vpn>>32 != uint64(h) || h == 0 || e.page() != vpn {
			t.Fatalf("%s: vpn %#x, want handle %#x over page %d", at, e.vpn, h, vpn)
		}
		if found, _ := a.probe(vpn); found != e || a.OwnedPages() != 2 {
			t.Fatalf("%s: the index lost the page (found %p, want %p; %d pages owned)", at, found, e, a.OwnedPages())
		}
	}
	// Growing the index rehashes every entry by its key: a spilled page
	// must move to the home of its page number, not of its vpn.
	a.Reserve(64)
	if e, _ := a.probe(vpn); e == nil || e.ovfLen() == 0 {
		t.Fatal("a spilled page was lost when the index grew")
	}
	var owned []uint64
	a.EachOwnedPage(func(p uint64) { owned = append(owned, p) })
	if !reflect.DeepEqual(owned, []uint64{0, vpn}) {
		t.Errorf("owned pages %v, want [0 %d]", owned, vpn)
	}
	// The next touch passes the cap, and the promoted frame's vpn is the
	// page number alone.
	a.Write(vpn, 0, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	copy(want, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	if e := ownedEntry(t, a, vpn); e.isDelta() || e.vpn != vpn {
		t.Fatalf("past the cap: lazy=%v vpn %#x, want a frame at page %d", e.isDelta(), e.vpn, vpn)
	}
	if got := a.Read(vpn, 0, PageSize); !bytes.Equal(got, want) {
		t.Error("promoted page differs from its writes in order")
	}
	a.Release()
	if err := s.CheckRefs(ExternalRefs(nil, []*Image{img})); err != nil {
		t.Fatal(err)
	}
}

// No image backs a page at or above 2^32, which is what lets a lazy
// delta keep its overflow handle above its page number. Image specs are
// compiled in, so both kinds of image panic rather than return an error.
func TestImagePagesBelow2To32(t *testing.T) {
	s := NewStore()
	BuildImage(s, 1<<33, 1<<32, 1) // backs pages up to 2^32 - 1
	wide := NewAddressSpace(s, 1<<33)
	defer wide.Release()
	wide.Write(1<<32, 0, []byte{1})
	for name, op := range map[string]func(){
		"BuildImage": func() { BuildImage(s, 1<<33, 1<<32+1, 1) },
		"Snapshot":   func() { Snapshot(wide) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of an image backing page 2^32 did not panic", name)
				}
			}()
			op()
		}()
	}
}

// A class's buffers sit side by side in a chunk, and a class that
// outgrows its chunk starts another. With every class holding two
// chunks' worth of full buffers and one more at once, every page must
// still read back what was written to it.
func TestDeltaOverflowChunkBoundaries(t *testing.T) {
	const pages = 2<<6 + 1 // the 10-byte class holds 64 buffers a chunk
	s := NewStore()
	img := BuildImage(s, pages, pages, 900)
	want := make([][]byte, pages)
	for vpn := range want {
		want[vpn] = imagePage(img, uint64(vpn))
	}
	clones := make([]*AddressSpace, deltaClasses)
	wants := make([][][]byte, deltaClasses)
	for c := range clones {
		a := img.NewClone()
		clones[c], wants[c] = a, make([][]byte, pages)
		perChunk := 1 << overflowShift[c]
		for vpn := 0; vpn < 2*perChunk+1; vpn++ {
			page := bytes.Clone(want[vpn])
			write := func(off, n int) {
				b := make([]byte, n)
				for i := range b {
					b[i] = byte(c*31 + vpn*7 + i + 1)
				}
				a.Write(uint64(vpn), off, b)
				copy(page[off:], b)
			}
			// Each page's buffer is filled to its last byte: in class 0 a
			// touch spilled behind an 11-byte record, which stays inline;
			// in class 1 the third and fourth touches behind two inline
			// ones, the fourth moving the buffer up from class 0; in the
			// others one record the class's size.
			off := vpn * 29 % (PageSize - deltaCap)
			switch c {
			case 0:
				write(off, 9)
				write(off+100, 8)
			case 1:
				write(off, 8)
				write(off+4, 8)
				write(off+100, 8)
				write(off+104, 8)
			default:
				write(off, (c+1)*deltaStep-deltaHdr)
			}
			e := ownedEntry(t, a, uint64(vpn))
			if h := e.overflow(); int(h>>overflowPosBits) != c || e.ovfLen() != overflowSize(h) {
				t.Fatalf("class %d page %d: overflow len %d in a %d B buffer of class %d",
					c, vpn, e.ovfLen(), overflowSize(h), h>>overflowPosBits)
			}
			wants[c][vpn] = page
		}
		if n := len(s.overflow[c].chunks); n != 3 {
			t.Fatalf("class %d carved %d chunks for %d buffers, want 3", c, n, 2*perChunk+1)
		}
	}
	for c, a := range clones {
		for vpn, page := range wants[c] {
			if page == nil {
				page = want[vpn]
			}
			if !bytes.Equal(a.PeekPage(uint64(vpn)), page) {
				t.Fatalf("class %d page %d: records read back differ", c, vpn)
			}
			if !bytes.Equal(a.Read(uint64(vpn), 0, PageSize), page) {
				t.Fatalf("class %d page %d: promoted page differs", c, vpn)
			}
		}
		a.Release()
	}
	if err := s.CheckRefs(ExternalRefs(nil, []*Image{img})); err != nil {
		t.Fatal(err)
	}
}

// A lazy delta reads through its image, so it never has a FrameID a
// second holder could take. Once promoted it is an ordinary frame, and a
// reference taken then outlives the clone.
func TestPromotedDeltaOutlivesImage(t *testing.T) {
	s := NewStore()
	img := BuildImage(s, 8, 4, 700)
	a := img.NewClone()
	a.Write(0, 8, []byte{4, 5, 6})
	want := a.PeekPage(0)

	a.Read(0, 0, 1)
	id := ownedEntry(t, a, 0).frame()
	s.IncRef(id)
	a.Release()
	if !bytes.Equal(s.View(id), want) {
		t.Error("frame content changed once its clone was gone")
	}
	s.DecRef(id)
	if err := s.CheckRefs(ExternalRefs(nil, []*Image{img})); err != nil {
		t.Fatal(err)
	}
}

// SharePass compares bytes, so it promotes what it scans, and the frame
// it keeps as canonical is a data frame both spaces can hold.
func TestSharePassMergesDeltaFrames(t *testing.T) {
	s := NewStore()
	img := BuildImage(s, 8, 4, 800)
	a, b := img.NewClone(), img.NewClone()
	a.Write(1, 16, []byte{1, 1})
	b.Write(1, 16, []byte{1, 1})
	b.Write(2, 16, []byte{2})
	want := a.PeekPage(1)
	before := s.Stats()

	res := SharePass(s, []*AddressSpace{a, b})
	if res.PagesMerged != 1 || res.PagesScanned != 3 {
		t.Fatalf("merged %d of %d pages scanned, want 1 of 3", res.PagesMerged, res.PagesScanned)
	}
	if ownedEntry(t, a, 1).frame() != ownedEntry(t, b, 1).frame() {
		t.Fatal("identical lazy deltas were not merged")
	}
	for i := 0; i < b.n; i++ {
		if e := b.at(i); e.isDelta() {
			t.Errorf("page %d still lazy after a share pass", e.page())
		}
	}
	if after := s.Stats(); after.Allocs != before.Allocs || after.Frees != before.Frees+1 || s.FrameCount() != 1+4+2 {
		t.Errorf("a merge of promoted pages should free one frame and allocate none: %+v -> %+v", before, after)
	}
	b.Write(1, 0, []byte{0xFF}) // CoW off the merged frame
	if got := a.Read(1, 0, PageSize); !bytes.Equal(got, want) {
		t.Error("write through one mapping of a merged frame leaked into the other")
	}
	if err := s.CheckRefs(ExternalRefs([]*AddressSpace{a, b}, []*Image{img})); err != nil {
		t.Fatal(err)
	}
	a.Release()
	b.Release()
	if err := s.CheckRefs(ExternalRefs(nil, []*Image{img})); err != nil {
		t.Fatal(err)
	}
}

// A released clone goes to the next NewClone with its index attached and
// empty, its chunks back in the store, and nothing of its last tenant's
// accounting.
func TestPageTableRecycledEmpty(t *testing.T) {
	s := NewStore()
	img := BuildImage(s, 4096, 2048, 1000)
	a := img.NewClone()
	for vpn := uint64(0); vpn < 40; vpn++ {
		a.Write(vpn, 0, []byte{byte(vpn + 1)})
	}
	a.Read(0, 0, 8)
	a.Release()
	if len(s.spaceFree) != 1 || len(s.chunkFree) != 2 {
		t.Fatalf("released clone's space and two chunks not on the store's free lists (%d, %d)", len(s.spaceFree), len(s.chunkFree))
	}
	b := img.NewClone()
	if b != a {
		t.Fatal("NewClone did not reuse the released clone")
	}
	if len(s.spaceFree) != 0 || b.OwnedPages() != 0 || b.ResidentPages() != 2048 || b.PrivatePages() != 0 {
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

	// Scratch spaces are not clones. A clone whose index stays within
	// indexMaxRecycle slots is kept; one that grew past it is not worth
	// clearing for every later tenant — but the chunks under it go back
	// all the same. over owns one page more than an index at the cap
	// holds, under one page fewer than over.
	b.Release()
	s.spaceFree, s.chunkFree = s.spaceFree[:0], s.chunkFree[:0]
	NewAddressSpace(s, 8).Release()
	over := img.NewClone()
	pages := uint64(0)
	for ; over.index.Slots() <= indexMaxRecycle; pages++ {
		over.Write(pages, 0, []byte{1})
	}
	if pages-1 != 3*indexMaxRecycle/4 {
		t.Errorf("an index of %d slots holds %d pages, want three quarters of it", indexMaxRecycle, pages-1)
	}
	under := img.NewClone()
	for vpn := uint64(0); vpn < pages-1; vpn++ {
		under.Write(vpn, 0, []byte{1})
	}
	under.Release()
	if len(s.spaceFree) != 1 || s.spaceFree[0] != under || under.index.Slots() != indexMaxRecycle || under.index.Len() != 0 {
		t.Errorf("a clone whose index is at the cap was not kept with its cleared index: pooled %d, %d slots, %d entries",
			len(s.spaceFree), under.index.Slots(), under.index.Len())
	}
	s.spaceFree, s.chunkFree = s.spaceFree[:0], s.chunkFree[:0]
	chunks := len(over.chunks)
	over.Release()
	if len(s.spaceFree) != 0 {
		t.Errorf("pooled %d spaces that should have been dropped", len(s.spaceFree))
	}
	if len(s.chunkFree) != chunks || !reflect.DeepEqual(over.index, pageIndex{}) || len(over.chunks) != 0 {
		t.Errorf("dropped clone kept its table: %d of %d chunks returned, index %+v", len(s.chunkFree), chunks, over.index)
	}
}

// A space's index addresses whatever the space can own: a clone that
// owns every page of the default image (a restored checkpoint can), and
// a scratch space with more pages than 16 bits count at page numbers
// that need all 64.
func TestPageTableWidest(t *testing.T) {
	s := NewStore()
	const resident = 32768
	img := BuildImage(s, resident, resident, 77)
	a := img.NewClone()
	for vpn := uint64(0); vpn < resident; vpn++ {
		if !a.Write(vpn, int(vpn%4000), []byte{byte(vpn), byte(vpn >> 8)}) {
			t.Fatalf("first write to page %d did not fault", vpn)
		}
	}
	for vpn := uint64(0); vpn < resident; vpn++ {
		if a.Write(vpn, 0, nil) {
			t.Fatalf("page %d faulted twice: the index lost it", vpn)
		}
	}
	if a.OwnedPages() != resident || a.PrivatePages() != resident || s.FrameCount() != 1+2*resident {
		t.Fatalf("owned=%d private=%d frames=%d", a.OwnedPages(), a.PrivatePages(), s.FrameCount())
	}
	for _, vpn := range []uint64{0, 255, 256, 4095, 32767} {
		want := make([]byte, PageSize)
		fillPattern(want, 77+vpn+1)
		copy(want[vpn%4000:], []byte{byte(vpn), byte(vpn >> 8)})
		if !bytes.Equal(a.PeekPage(vpn), want) {
			t.Errorf("page %d content wrong", vpn)
		}
	}
	a.Release()
	if s.FrameCount() != 1+resident || len(s.spaceFree) != 0 {
		t.Errorf("after release: %d frames, %d pooled spaces", s.FrameCount(), len(s.spaceFree))
	}

	wide := NewAddressSpace(s, ^uint64(0))
	const pages = 70000
	vpnOf := func(i uint64) uint64 { return i<<44 | i }
	for i := uint64(0); i < pages; i++ {
		wide.Write(vpnOf(i), 0, []byte{0}) // maps the zero frame: no page buffer
	}
	if wide.OwnedPages() != pages {
		t.Fatalf("owned %d pages, want %d", wide.OwnedPages(), pages)
	}
	for i := uint64(0); i < pages; i++ {
		if e, _ := wide.probe(vpnOf(i)); e == nil || e.vpn != vpnOf(i) {
			t.Fatalf("page %#x not found", vpnOf(i))
		}
		if e, _ := wide.probe(vpnOf(i) + 1<<20); e != nil {
			t.Fatalf("page %#x found but never mapped", vpnOf(i)+1<<20)
		}
	}
	wide.Release()
	if err := s.CheckRefs(ExternalRefs(nil, []*Image{img})); err != nil {
		t.Fatal(err)
	}
}
