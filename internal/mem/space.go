package mem

import "fmt"

// SpaceStats counts per-address-space memory events.
type SpaceStats struct {
	CowFaults  uint64 // writes that triggered a page copy
	ZeroFills  uint64 // writes that promoted an unmapped page
	WritesDone uint64 // total write operations
	ReadsDone  uint64 // total read operations
}

// AddressSpace is one VM's guest-physical memory: a sparse overlay of
// owned pages over an optional base Image, on a shared Store.
//
// A clone is valid until Release: the store keeps the released space
// and hands the same *AddressSpace to a later NewClone, so a handle kept
// past Release comes to name another VM's memory.
//
// A flash-cloned space starts as a pure overlay — zero owned pages, all
// reads falling through to the reference image — so cloning costs O(1)
// regardless of image size, exactly like attaching copy-on-write shadow
// page tables. The first write to an image-backed page copies that page
// into the overlay (a CoW fault, charged as a frame; the page table
// records the bytes written and defers producing the page until it is
// read); writes to pages the image never populated allocate zero-filled
// frames on demand. Unmapped pages read as zero.
type AddressSpace struct {
	store    *Store
	base     *Image // nil for scratch (non-cloned) spaces
	numPages uint64 // guest-physical size in pages
	released bool

	// The page table (see pagetable.go): n entries logged in chunks, and
	// the index over them.
	chunks tableLog
	n      int
	index  pageIndex

	// Incremental accounting, maintained as mappings change and by the
	// store's updatePrivate hook so PrivatePages/ResidentPages are O(1):
	// private counts pages this space is the sole holder of (lazy deltas,
	// and frames with refs == 1); shadowed counts owned vpns that also
	// exist in the base image.
	private  int
	shadowed int

	stats SpaceStats
}

// NewAddressSpace creates an empty scratch space of numPages
// guest-physical pages over store. All pages initially read as zero.
func NewAddressSpace(store *Store, numPages uint64) *AddressSpace {
	if numPages == 0 {
		panic("mem: zero-size address space")
	}
	return &AddressSpace{store: store, numPages: numPages}
}

// NumPages returns the guest-physical size in pages.
func (a *AddressSpace) NumPages() uint64 { return a.numPages }

// Base returns the reference image this space overlays, or nil.
func (a *AddressSpace) Base() *Image { return a.base }

func (a *AddressSpace) checkPage(vpn uint64) {
	if a.released {
		panic("mem: use of released address space")
	}
	if vpn >= a.numPages {
		panic(fmt.Sprintf("mem: page %d outside space of %d pages", vpn, a.numPages))
	}
}

// mapFrame maps vpn, which probe just found absent at index slot i and
// which the base image does not back, to frame id. Reference counts are
// the caller's business.
func (a *AddressSpace) mapFrame(vpn uint64, i int, id FrameID) {
	a.add(vpn, i).setFrame(id)
	a.store.addHolder(id, a)
}

// setFrame points an owned page that is not a lazy delta at another
// frame, keeping holder registration consistent. Reference counts are
// the caller's business.
func (a *AddressSpace) setFrame(e *entry, id FrameID) {
	if old := e.frame(); old != id {
		a.store.dropHolder(old, a)
		a.store.addHolder(id, a)
	}
	e.setFrame(id)
}

// Read copies n bytes at (vpn, off) into a fresh slice. Unmapped pages
// read as zeroes.
func (a *AddressSpace) Read(vpn uint64, off, n int) []byte {
	a.checkPage(vpn)
	if off < 0 || off+n > PageSize {
		panic(fmt.Sprintf("mem: read [%d,%d) outside page", off, off+n))
	}
	a.stats.ReadsDone++
	out := make([]byte, n)
	switch e, _ := a.probe(vpn); {
	case e == nil:
		if a.base != nil && a.base.has(vpn) {
			buf := a.store.getBuf()
			a.base.render(vpn, buf)
			copy(out, buf[off:off+n])
			a.store.putBuf(buf)
		}
	case e.isDelta():
		copy(out, a.promote(e).data[off:off+n])
	default:
		copy(out, a.store.View(e.frame())[off:off+n])
	}
	return out
}

// Write stores b at (vpn, off), faulting in a private copy if the page
// is backed by the base image or by a shared frame (delta
// virtualization's CoW), or a fresh frame if unmapped. It reports
// whether a fault (copy or fill) occurred — the VMM's latency model
// charges faults, not in-place writes.
func (a *AddressSpace) Write(vpn uint64, off int, b []byte) bool {
	a.checkPage(vpn)
	if off < 0 || off+len(b) > PageSize {
		panic(fmt.Sprintf("mem: write [%d,%d) outside page", off, off+len(b)))
	}
	a.stats.WritesDone++
	e, i := a.probe(vpn)
	if e != nil {
		if e.isDelta() {
			if !a.appendDelta(e, off, b) {
				copy(a.promote(e).data[off:], b)
			}
			return false
		}
		newID, copied := a.store.CowWrite(e.frame(), off, b)
		if copied {
			a.setFrame(e, newID)
			a.stats.CowFaults++
		}
		return copied
	}
	if a.base != nil && a.base.has(vpn) {
		// CoW fault against the reference image: a frame of this space's
		// own as far as every count goes, a lazy delta on the host. A
		// write too large to record is copied now.
		a.store.count(1)
		a.store.stats.CowCopies++
		a.private++
		a.shadowed++
		a.stats.CowFaults++
		e = a.add(vpn, i)
		e.setDelta(0, 0)
		if !a.appendDelta(e, off, b) {
			copy(a.promote(e).data[off:], b)
		}
		return true
	}
	// Unmapped: writing to fresh zero-backed memory.
	id := a.store.AllocZeroFill(off, b) // may return the zero frame for zero writes
	a.mapFrame(vpn, i, id)
	a.stats.ZeroFills++
	return true
}

// Reserve sizes the page table's index and its chunk list for n more
// owned pages, so that a burst of faults adding up to n pages grows
// each at most here, once. It never shrinks either, and changes nothing
// the space reads back.
func (a *AddressSpace) Reserve(n int) {
	if a.released {
		panic("mem: use of released address space")
	}
	a.growIndex(a.n + n)
	if chunks := (a.n + n + chunkEntries - 1) / chunkEntries; chunks > cap(a.chunks) {
		grown := make(tableLog, len(a.chunks), chunks)
		copy(grown, a.chunks)
		a.chunks = grown
	}
}

// EachOwnedPage visits every page the space maps directly (private
// copies, zero-fills, dedup-shared frames), in the order they were first
// faulted. fn may read and write the space's owned pages.
// Checkpointing uses it to enumerate the VM's delta.
func (a *AddressSpace) EachOwnedPage(fn func(vpn uint64)) {
	for i := 0; i < a.n; i++ {
		fn(a.at(i).page())
	}
}

// OwnedPages returns the number of pages this space maps directly
// (private copies, zero-fills, and dedup-shared frames), excluding
// base-image fall-through.
func (a *AddressSpace) OwnedPages() int { return a.n }

// ResidentPages returns the number of pages with backing content:
// owned pages plus base pages not shadowed by an owned copy. O(1): the
// shadow count is maintained as mappings change.
func (a *AddressSpace) ResidentPages() int {
	if a.base == nil {
		return a.n
	}
	return a.base.resident + a.n - a.shadowed
}

// PrivatePages returns the number of pages backed by frames this space
// holds exclusively — the VM's incremental memory cost, the quantity
// delta virtualization minimizes. O(1): the store attributes private
// frames to their sole holder as reference counts change, so sampling
// this in a loop (E2 does) no longer scans the page table.
func (a *AddressSpace) PrivatePages() int { return a.private }

// Release unmaps everything, dropping frame references and detaching
// from the base image. The space is unusable afterwards; a clone goes
// back to the store to be the next one. Lazy deltas have no slot to
// free: their overflow buffers go back and the store uncounts them.
func (a *AddressSpace) Release() {
	if a.released {
		return
	}
	s := a.store
	deltas := 0
	for i := 0; i < a.n; i++ {
		e := a.at(i)
		if e.isDelta() {
			deltas++
			if e.ovfLen() > 0 {
				s.overflowFree(e.overflow())
			}
			continue
		}
		id := e.frame()
		f := s.must(id)
		if id != s.zero {
			s.removeHolder(id.index(), f, a)
		}
		s.decRef(id, f)
	}
	s.uncount(deltas)
	for _, c := range a.chunks {
		if len(s.chunkFree) < chunkPoolCap {
			s.chunkFree = append(s.chunkFree, c)
		}
	}
	clear(a.chunks)
	a.chunks = a.chunks[:0]
	keep := a.base != nil && a.index.Slots() <= indexMaxRecycle && len(s.spaceFree) < spacePoolCap
	a.n, a.private, a.shadowed = 0, 0, 0
	a.released = true
	a.base = nil
	if !keep {
		a.index = pageIndex{}
		return
	}
	a.index.Clear() // the next clone's faults grow nothing
	s.spaceFree = append(s.spaceFree, a)
}

// frameRefs accumulates this space's references per frame, for
// CheckRefs-based leak tests; lazy deltas count under FrameID 0.
func (a *AddressSpace) frameRefs(into map[FrameID]int64) {
	for i := 0; i < a.n; i++ {
		if e := a.at(i); e.isDelta() {
			into[0]++
		} else {
			into[e.frame()]++
		}
	}
}

// ExternalRefs builds the frame-reference census across spaces and
// images for Store.CheckRefs. FrameID 0, which names no frame, carries
// the count of described frames: synthetic images' pages and lazy
// deltas.
func ExternalRefs(spaces []*AddressSpace, images []*Image) map[FrameID]int64 {
	refs := make(map[FrameID]int64)
	for _, a := range spaces {
		if a != nil && !a.released {
			a.frameRefs(refs)
		}
	}
	for _, img := range images {
		if img != nil {
			img.frameRefs(refs)
		}
	}
	return refs
}
