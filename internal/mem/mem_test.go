package mem

import (
	"bytes"
	"testing"
	"testing/quick"

	"potemkin/internal/sim"
)

func page(fill byte) []byte {
	b := make([]byte, PageSize)
	for i := range b {
		b[i] = fill
	}
	return b
}

func TestZeroFrameShared(t *testing.T) {
	s := NewStore()
	a := s.ZeroFrame()
	b := s.ZeroFrame()
	if a != b {
		t.Fatal("zero frames differ")
	}
	if s.Refs(a) != 3 { // permanent + 2
		t.Errorf("refs = %d, want 3", s.Refs(a))
	}
	s.DecRef(a)
	s.DecRef(b)
	if s.FrameCount() != 1 {
		t.Errorf("FrameCount = %d, want 1 (zero frame survives)", s.FrameCount())
	}
}

func TestAllocDataZeroContentUsesZeroFrame(t *testing.T) {
	s := NewStore()
	id := s.AllocData(make([]byte, PageSize))
	if !s.IsZeroFrame(id) {
		t.Error("all-zero page did not map to zero frame")
	}
}

func TestAllocDataCopies(t *testing.T) {
	s := NewStore()
	src := page(7)
	id := s.AllocData(src)
	src[0] = 99 // caller mutation must not leak in
	if s.View(id)[0] != 7 {
		t.Error("AllocData aliased caller bytes")
	}
}

func TestDedupSharing(t *testing.T) {
	s := NewStore()
	s.ShareContent = true
	a := s.AllocData(page(5))
	b := s.AllocData(page(5))
	if a != b {
		t.Fatal("identical pages not shared")
	}
	if s.Refs(a) != 2 {
		t.Errorf("refs = %d", s.Refs(a))
	}
	c := s.AllocData(page(6))
	if c == a {
		t.Error("different pages shared")
	}
	if s.Stats().DedupHits != 1 {
		t.Errorf("DedupHits = %d", s.Stats().DedupHits)
	}
}

func TestDedupDisabled(t *testing.T) {
	s := NewStore()
	a := s.AllocData(page(5))
	b := s.AllocData(page(5))
	if a == b {
		t.Error("sharing happened with ShareContent off")
	}
}

func TestCowWriteSharedCopies(t *testing.T) {
	s := NewStore()
	s.ShareContent = true
	a := s.AllocData(page(1))
	b := s.AllocData(page(1)) // same frame, refs 2
	id, copied := s.CowWrite(a, 0, []byte{9})
	if !copied {
		t.Fatal("shared write did not copy")
	}
	if id == a {
		t.Fatal("copy returned same frame")
	}
	if s.View(id)[0] != 9 || s.View(id)[1] != 1 {
		t.Error("copy content wrong")
	}
	if s.View(b)[0] != 1 {
		t.Error("original mutated")
	}
	if s.Refs(b) != 1 || s.Refs(id) != 1 {
		t.Errorf("refs: orig=%d copy=%d", s.Refs(b), s.Refs(id))
	}
}

func TestCowWriteExclusiveInPlace(t *testing.T) {
	s := NewStore()
	a := s.AllocData(page(1))
	id, copied := s.CowWrite(a, 10, []byte{42})
	if copied || id != a {
		t.Fatal("exclusive write should be in place")
	}
	if s.View(a)[10] != 42 {
		t.Error("write lost")
	}
}

func TestCowWriteOnDedupedFrameDropsHash(t *testing.T) {
	s := NewStore()
	s.ShareContent = true
	a := s.AllocData(page(3)) // refs 1, hashed
	s.CowWrite(a, 0, []byte{4})
	// Allocating the original content again must NOT return frame a.
	b := s.AllocData(page(3))
	if b == a {
		t.Error("stale dedup entry matched mutated frame")
	}
	// And allocating the mutated content must not match either (hash was
	// dropped, frame no longer registered).
	mut := page(3)
	mut[0] = 4
	c := s.AllocData(mut)
	if c == a {
		t.Error("mutated frame still registered for dedup")
	}
}

func TestPatternFrameLazyAndStable(t *testing.T) {
	s := NewStore()
	a := s.AllocPattern(123)
	v1 := append([]byte(nil), s.View(a)...)
	v2 := s.View(a)
	if !bytes.Equal(v1, v2) {
		t.Error("pattern view unstable")
	}
	b := s.AllocPattern(123)
	if !bytes.Equal(s.View(b), v1) {
		t.Error("same seed produced different content")
	}
	c := s.AllocPattern(124)
	if bytes.Equal(s.View(c), v1) {
		t.Error("different seeds produced same content")
	}
}

func TestDecRefFrees(t *testing.T) {
	s := NewStore()
	a := s.AllocData(page(1))
	before := s.FrameCount()
	s.DecRef(a)
	if s.FrameCount() != before-1 {
		t.Error("frame not freed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("use after free did not panic")
		}
	}()
	s.View(a)
}

func TestNegativeRefPanics(t *testing.T) {
	s := NewStore()
	a := s.AllocData(page(1))
	s.DecRef(a)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	s.DecRef(a)
}

func TestSpaceReadUnmappedZero(t *testing.T) {
	s := NewStore()
	a := NewAddressSpace(s, 100)
	got := a.Read(5, 100, 16)
	for _, b := range got {
		if b != 0 {
			t.Fatal("unmapped read nonzero")
		}
	}
	if a.ResidentPages() != 0 {
		t.Error("read faulted a page in")
	}
}

func TestSpaceWriteReadBack(t *testing.T) {
	s := NewStore()
	a := NewAddressSpace(s, 100)
	a.Write(3, 10, []byte("hello"))
	if got := a.Read(3, 10, 5); string(got) != "hello" {
		t.Errorf("read back %q", got)
	}
	if got := a.Read(3, 0, 10); !bytes.Equal(got, make([]byte, 10)) {
		t.Error("rest of page not zero")
	}
	if a.ResidentPages() != 1 || a.PrivatePages() != 1 {
		t.Errorf("resident=%d private=%d", a.ResidentPages(), a.PrivatePages())
	}
}

func TestSpaceBoundsPanic(t *testing.T) {
	s := NewStore()
	a := NewAddressSpace(s, 10)
	for _, fn := range []func(){
		func() { a.Read(10, 0, 1) },
		func() { a.Write(11, 0, []byte{1}) },
		func() { a.Read(0, PageSize, 1) },
		func() { a.Write(0, PageSize-1, []byte{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-bounds access did not panic")
				}
			}()
			fn()
		}()
	}
}

// Clones of a reference image share it: cloning takes no frame, and a
// clone's write faults a page of its own that neither a sibling nor the
// image sees.
func TestSnapshotCloneSharing(t *testing.T) {
	s := NewStore()
	img := BuildImage(s, 64, 8, 11)
	framesAfterBuild := s.FrameCount()
	want := imagePage(img, 3)

	c1 := img.NewClone()
	c2 := img.NewClone()
	if s.FrameCount() != framesAfterBuild {
		t.Errorf("cloning allocated frames: %d -> %d", framesAfterBuild, s.FrameCount())
	}
	if c1.ResidentPages() != 8 || c1.PrivatePages() != 0 {
		t.Errorf("clone resident=%d private=%d", c1.ResidentPages(), c1.PrivatePages())
	}
	// Clone reads see image content.
	if got := c1.Read(3, 0, PageSize); !bytes.Equal(got, want) {
		t.Error("clone read is not the image's page")
	}
	// Clone write CoWs without touching the other clone or the image.
	c1.Write(3, 0, []byte{^want[0]})
	if c2.Read(3, 0, 1)[0] != want[0] {
		t.Error("clone write leaked to sibling")
	}
	if !bytes.Equal(imagePage(img, 3), want) {
		t.Error("clone write leaked to the image")
	}
	if c1.PrivatePages() != 1 {
		t.Errorf("private = %d after one write", c1.PrivatePages())
	}
	if c1.Stats().CowFaults != 1 {
		t.Errorf("CowFaults = %d", c1.Stats().CowFaults)
	}
}

func TestBuildImageClone(t *testing.T) {
	s := NewStore()
	img := BuildImage(s, 1024, 100, 7)
	if img.ResidentPages() != 100 || img.NumPages() != 1024 {
		t.Fatalf("resident=%d num=%d", img.ResidentPages(), img.NumPages())
	}
	c := img.NewClone()
	if c.ResidentPages() != 100 {
		t.Errorf("clone resident = %d", c.ResidentPages())
	}
	// Content deterministic across clones.
	d := img.NewClone()
	if !bytes.Equal(c.Read(5, 0, 32), d.Read(5, 0, 32)) {
		t.Error("clones disagree on image content")
	}
	if img.Clones() != 2 {
		t.Errorf("Clones() = %d", img.Clones())
	}
}

func TestReleaseFreesFrames(t *testing.T) {
	s := NewStore()
	img := BuildImage(s, 256, 50, 1)
	clones := make([]*AddressSpace, 10)
	for i := range clones {
		clones[i] = img.NewClone()
		clones[i].Write(uint64(i), 0, []byte{byte(i)})
	}
	for _, c := range clones {
		c.Release()
	}
	if s.FrameCount() != 1+50 { // the zero frame and the image's pages
		t.Errorf("FrameCount = %d after every clone's release", s.FrameCount())
	}
	if err := s.CheckRefs(ExternalRefs(nil, []*Image{img})); err != nil {
		t.Error(err)
	}
}

func TestReleaseIdempotent(t *testing.T) {
	s := NewStore()
	a := NewAddressSpace(s, 8)
	a.Write(0, 0, []byte{1})
	a.Release()
	a.Release() // must not double-free
	if s.FrameCount() != 1 {
		t.Errorf("FrameCount = %d", s.FrameCount())
	}
}

func TestUseAfterReleasePanics(t *testing.T) {
	s := NewStore()
	a := NewAddressSpace(s, 8)
	a.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	a.Write(0, 0, []byte{1})
}

func TestCheckRefsDetectsLeak(t *testing.T) {
	s := NewStore()
	img := BuildImage(s, 8, 4, 1)
	c := img.NewClone()
	refs := ExternalRefs([]*AddressSpace{c}, nil) // image refs omitted on purpose
	if err := s.CheckRefs(refs); err == nil {
		t.Error("CheckRefs missed unaccounted references")
	}
	refs = ExternalRefs([]*AddressSpace{c}, []*Image{img})
	if err := s.CheckRefs(refs); err != nil {
		t.Errorf("CheckRefs on consistent state: %v", err)
	}
}

// Property: after any sequence of writes across clones, (1) refcounts are
// consistent, (2) no clone sees another clone's writes, (3) unwritten
// pages still read as image content.
func TestCloneIsolationProperty(t *testing.T) {
	err := quick.Check(func(ops []uint32, shareContent bool) bool {
		s := NewStore()
		s.ShareContent = shareContent
		img := BuildImage(s, 64, 32, 99)
		clones := []*AddressSpace{img.NewClone(), img.NewClone(), img.NewClone()}
		type wr struct{ val byte }
		written := make([]map[uint64]wr, len(clones))
		for i := range written {
			written[i] = map[uint64]wr{}
		}
		for _, op := range ops {
			ci := int(op % 3)
			vpn := uint64(op>>2) % 64
			val := byte(op >> 8)
			clones[ci].Write(vpn, 0, []byte{val})
			written[ci][vpn] = wr{val}
		}
		// Refcount consistency.
		refs := ExternalRefs(clones, []*Image{img})
		if err := s.CheckRefs(refs); err != nil {
			return false
		}
		// Isolation + image fidelity.
		ref := img.NewClone()
		for ci, c := range clones {
			for vpn := uint64(0); vpn < 64; vpn++ {
				got := c.Read(vpn, 0, 1)[0]
				if w, ok := written[ci][vpn]; ok {
					if got != w.val {
						return false
					}
				} else if got != ref.Read(vpn, 0, 1)[0] {
					return false
				}
			}
		}
		ref.Release()
		for _, c := range clones {
			c.Release()
		}
		return s.FrameCount() == 1+32 // only the zero frame and the image's pages survive
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

// Property: a frame with refcount > 1 is never mutated by writes.
func TestSharedFrameImmutableProperty(t *testing.T) {
	r := sim.NewRNG(5)
	s := NewStore()
	img := BuildImage(s, 32, 32, 3)
	snapshotContent := make([][]byte, 32)
	c0 := img.NewClone()
	for i := range snapshotContent {
		snapshotContent[i] = append([]byte(nil), c0.Read(uint64(i), 0, PageSize)...)
	}
	clones := []*AddressSpace{c0, img.NewClone(), img.NewClone()}
	for i := 0; i < 2000; i++ {
		c := clones[r.Intn(len(clones))]
		vpn := uint64(r.Intn(32))
		off := r.Intn(PageSize)
		c.Write(vpn, off, []byte{byte(r.Uint64())})
	}
	// Image content unchanged.
	fresh := img.NewClone()
	for i := range snapshotContent {
		if !bytes.Equal(fresh.Read(uint64(i), 0, PageSize), snapshotContent[i]) {
			t.Fatalf("image page %d mutated by clone writes", i)
		}
	}
}

func TestPrivateSharedAccounting(t *testing.T) {
	s := NewStore()
	img := BuildImage(s, 64, 10, 1)
	c := img.NewClone()
	if c.SharedPages() != 10 || c.PrivatePages() != 0 {
		t.Fatalf("initial shared=%d private=%d", c.SharedPages(), c.PrivatePages())
	}
	c.Write(0, 0, []byte{1})
	c.Write(1, 0, []byte{2})
	if c.PrivatePages() != 2 || c.SharedPages() != 8 {
		t.Errorf("after writes shared=%d private=%d", c.SharedPages(), c.PrivatePages())
	}
}

func TestModeledBytes(t *testing.T) {
	s := NewStore()
	base := s.ModeledBytes() // zero frame
	s.AllocData(page(1))
	if s.ModeledBytes() != base+PageSize {
		t.Errorf("ModeledBytes = %d", s.ModeledBytes())
	}
}

func TestStatsCounters(t *testing.T) {
	s := NewStore()
	img := BuildImage(s, 16, 8, 1)
	c := img.NewClone()
	c.Write(0, 0, []byte{1}) // CoW fault
	c.Write(9, 0, []byte{1}) // zero-fill (page 9 not in image)
	st := c.Stats()
	if st.CowFaults != 1 || st.ZeroFills != 1 || st.WritesDone != 2 {
		t.Errorf("stats = %+v", st)
	}
	if s.Stats().CowCopies != 1 {
		t.Errorf("store CowCopies = %d", s.Stats().CowCopies)
	}
}
