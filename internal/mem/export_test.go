package mem

import "unsafe"

// Views for model_test.go, which is an external test package because it
// drives checkpoints through vmm, and vmm imports this package.

// WindowPages is how many page numbers a space maps directly, so
// generated operations address pages on both sides of the window's edge.
const WindowPages = windowPages

// The delta record geometry, so generated writes can straddle its edges:
// DeltaInline is the longest write whose record sits inline.
const (
	DeltaHdr      = deltaHdr
	DeltaShortMax = deltaShortMax
	DeltaInline   = deltaInline
	DeltaCap      = deltaCap
)

// Clones returns how many address spaces have been cloned from the
// image over its lifetime.
func (img *Image) Clones() uint64 { return img.clones }

// NumPages returns the guest-physical size in pages.
func (img *Image) NumPages() uint64 { return img.numPages }

// ResidentPages returns the number of pages with backing content:
// owned pages plus base pages not shadowed by an owned copy. It walks
// the page table, O(owned pages).
func (a *AddressSpace) ResidentPages() int {
	if a.base == nil {
		return a.n
	}
	shadowed := 0
	for i := 0; i < a.n; i++ {
		if a.base.has(a.at(i).page()) {
			shadowed++
		}
	}
	return a.base.resident + a.n - shadowed
}

// OwnedPages returns the number of pages this space maps directly
// (private copies, zero-fills, and dedup-shared frames), excluding
// base-image fall-through.
func (a *AddressSpace) OwnedPages() int { return a.n }

// Stats returns a copy of the space's counters.
func (a *AddressSpace) Stats() SpaceStats { return a.stats }

// FrameCount returns the number of live frames (including the zero
// frame).
func (s *Store) FrameCount() int { return s.live }

// SharedPages returns the number of resident pages backed by shared
// frames (base-image pages, the zero frame, dedup hits).
func (a *AddressSpace) SharedPages() int { return a.ResidentPages() - a.PrivatePages() }

// PeekPage returns what Read(vpn, 0, PageSize) would, without promoting
// or materializing anything: a test that looked with Read would turn
// every lazy page it checked into a data frame.
func (a *AddressSpace) PeekPage(vpn uint64) []byte {
	a.checkPage(vpn)
	out := make([]byte, PageSize)
	buf := (*[PageSize]byte)(out)
	switch e, _ := a.probe(vpn); {
	case e == nil:
		if a.base != nil && a.base.has(vpn) {
			a.base.render(vpn, buf)
		}
	case e.isDelta():
		a.renderDelta(e, buf)
	default:
		a.store.render(a.store.must(e.frame()), buf)
	}
	return out
}

// IsDelta reports whether vpn is owned and still a lazy delta.
func (a *AddressSpace) IsDelta(vpn uint64) bool {
	e, _ := a.probe(vpn)
	return e != nil && e.isDelta()
}

// Materialize gives vpn's page its bytes now, as every fault did before
// lazy deltas: a run that calls it after each write is the eager
// reference.
func (a *AddressSpace) Materialize(vpn uint64) {
	switch e, _ := a.probe(vpn); {
	case e == nil:
	case e.isDelta():
		a.promote(e)
	default:
		a.store.View(e.frame())
	}
}

// ChunkBytes is what a store's arenas have carved, whatever they hold:
// the slab's chunks in all, and each overflow class's chunks one by one.
func (s *Store) ChunkBytes() (slab int, overflow [deltaClasses][]int) {
	for _, c := range s.slab {
		slab += cap(c) * int(unsafe.Sizeof(frame{}))
	}
	for i := range s.overflow {
		for _, c := range s.overflow[i].chunks {
			overflow[i] = append(overflow[i], cap(c))
		}
	}
	return slab, overflow
}
