package mem

import "fmt"

// PTE is a page-table entry: which frame backs a virtual page and
// whether the mapping is private (exclusively owned, writable in place)
// or shared (writes fault and copy).
type PTE struct {
	Frame   FrameID
	Private bool
}

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
// A clone is valid until Release: the store keeps the released space,
// page table attached, and hands the same *AddressSpace to a later
// NewClone, so a handle kept past Release comes to name another VM's
// memory.
//
// A flash-cloned space starts as a pure overlay — zero owned pages, all
// reads falling through to the reference image — so cloning costs O(1)
// regardless of image size, exactly like attaching copy-on-write shadow
// page tables. The first write to an image-backed page copies that page
// into the overlay (a CoW fault, charged as a frame; the store defers
// producing the bytes until they are read); writes to pages the image
// never populated allocate zero-filled frames on demand. Unmapped pages
// read as zero.
type AddressSpace struct {
	store    *Store
	base     *Image // nil for scratch (non-cloned) spaces
	pages    map[uint64]PTE
	numPages uint64 // guest-physical size in pages
	released bool

	// Incremental accounting, maintained by setPage/dropPage and the
	// store's updatePrivate hook so PrivatePages/ResidentPages are O(1):
	// private counts frames this space is the sole holder of (refs ==
	// 1); shadowed counts owned vpns that also exist in the base image.
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
	return &AddressSpace{store: store, pages: make(map[uint64]PTE), numPages: numPages}
}

// Store returns the backing frame store.
func (a *AddressSpace) Store() *Store { return a.store }

// NumPages returns the guest-physical size in pages.
func (a *AddressSpace) NumPages() uint64 { return a.numPages }

// Base returns the reference image this space overlays, or nil.
func (a *AddressSpace) Base() *Image { return a.base }

// Stats returns a copy of the space's counters.
func (a *AddressSpace) Stats() SpaceStats { return a.stats }

func (a *AddressSpace) checkPage(vpn uint64) {
	if a.released {
		panic("mem: use of released address space")
	}
	if vpn >= a.numPages {
		panic(fmt.Sprintf("mem: page %d outside space of %d pages", vpn, a.numPages))
	}
}

// setPage installs or replaces the mapping for vpn, keeping holder
// registration and the shadowed counter consistent. Reference counts
// are the caller's business.
func (a *AddressSpace) setPage(vpn uint64, pte PTE) {
	if old, ok := a.pages[vpn]; ok {
		if old.Frame != pte.Frame {
			a.store.dropHolder(old.Frame, a)
			a.store.addHolder(pte.Frame, a)
		}
		a.pages[vpn] = pte
		return
	}
	a.pages[vpn] = pte
	a.store.addHolder(pte.Frame, a)
	if a.base != nil && a.base.frame(vpn) != 0 {
		a.shadowed++
	}
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
	if pte, ok := a.pages[vpn]; ok {
		copy(out, a.store.View(pte.Frame)[off:off+n])
		return out
	}
	if a.base != nil {
		if src := a.base.frame(vpn); src != 0 {
			copy(out, a.store.View(src)[off:off+n])
		}
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
	if pte, ok := a.pages[vpn]; ok {
		newID, copied := a.store.CowWrite(pte.Frame, off, b)
		if copied {
			a.setPage(vpn, PTE{Frame: newID, Private: true})
			a.stats.CowFaults++
			return true
		}
		if !pte.Private {
			a.pages[vpn] = PTE{Frame: pte.Frame, Private: true}
		}
		return false
	}
	if a.base != nil {
		if src := a.base.frame(vpn); src != 0 {
			// CoW fault against the reference image: its content, with
			// this write, in a frame this space owns. Everything setPage
			// and addHolder would look up is known here — the page is
			// unmapped, in the base, and the fresh frame has one
			// reference and no holder — so the fault probes each table
			// once.
			id, f := a.store.allocDelta(src, off, b)
			f.holder = a
			f.flags |= flagPriv
			a.private++
			a.shadowed++
			a.pages[vpn] = PTE{Frame: id, Private: true}
			a.stats.CowFaults++
			return true
		}
	}
	// Unmapped: writing to fresh zero-backed memory.
	id := a.store.AllocZeroFill(off, b) // may return the zero frame for zero writes
	private := !a.store.IsZeroFrame(id) && a.store.Refs(id) == 1
	a.setPage(vpn, PTE{Frame: id, Private: private})
	a.stats.ZeroFills++
	return true
}

// MapPattern maps vpn to a fresh pattern frame (synthetic image
// content). Replaces any owned mapping and shadows any base mapping.
func (a *AddressSpace) MapPattern(vpn, seed uint64) {
	a.checkPage(vpn)
	old, replaced := a.pages[vpn]
	a.setPage(vpn, PTE{Frame: a.store.AllocPattern(seed), Private: true})
	if replaced {
		a.store.DecRef(old.Frame)
	}
}

// EachOwnedPage visits every page the space maps directly (private
// copies, zero-fills, dedup-shared frames), in unspecified order.
// Checkpointing uses it to enumerate the VM's delta.
func (a *AddressSpace) EachOwnedPage(fn func(vpn uint64)) {
	for vpn := range a.pages {
		fn(vpn)
	}
}

// OwnedPages returns the number of pages this space maps directly
// (private copies, zero-fills, and dedup-shared frames), excluding
// base-image fall-through.
func (a *AddressSpace) OwnedPages() int { return len(a.pages) }

// ResidentPages returns the number of pages with backing content:
// owned pages plus base pages not shadowed by an owned copy. O(1): the
// shadow count is maintained as mappings change.
func (a *AddressSpace) ResidentPages() int {
	if a.base == nil {
		return len(a.pages)
	}
	return a.base.resident + len(a.pages) - a.shadowed
}

// PrivatePages returns the number of pages backed by frames this space
// holds exclusively — the VM's incremental memory cost, the quantity
// delta virtualization minimizes. O(1): the store attributes private
// frames to their sole holder as reference counts change, so sampling
// this in a loop (E2 does) no longer scans the page table.
func (a *AddressSpace) PrivatePages() int { return a.private }

// PrivateBytes is PrivatePages in bytes.
func (a *AddressSpace) PrivateBytes() uint64 { return uint64(a.PrivatePages()) * PageSize }

// SharedPages returns the number of resident pages backed by shared
// frames (base-image pages, the zero frame, dedup hits).
func (a *AddressSpace) SharedPages() int { return a.ResidentPages() - a.PrivatePages() }

// Release unmaps everything, dropping frame references and detaching
// from the base image. The space is unusable afterwards; a clone goes
// back to the store to be the next one.
func (a *AddressSpace) Release() {
	if a.released {
		return
	}
	s := a.store
	for _, pte := range a.pages {
		f := s.must(pte.Frame)
		if pte.Frame != s.zero {
			s.removeHolder(pte.Frame.index(), f, a)
		}
		s.decRef(pte.Frame, f)
	}
	a.shadowed = 0
	a.released = true
	if a.base == nil {
		a.pages = nil
		return
	}
	a.base.live--
	a.base = nil
	if len(a.pages) > pageTableMaxRecycle || len(s.spaceFree) >= spacePoolCap {
		a.pages = nil
		return
	}
	clear(a.pages) // keeps the buckets, so the next clone's faults grow nothing
	s.spaceFree = append(s.spaceFree, a)
}

// frameRefs accumulates this space's references per frame, for
// CheckRefs-based leak tests.
func (a *AddressSpace) frameRefs(into map[FrameID]int64) {
	for _, pte := range a.pages {
		into[pte.Frame]++
	}
}

// ExternalRefs builds the frame-reference census across spaces and
// images for Store.CheckRefs.
func ExternalRefs(spaces []*AddressSpace, images []*Image) map[FrameID]int64 {
	refs := make(map[FrameID]int64)
	for _, a := range spaces {
		if a != nil && !a.released {
			a.frameRefs(refs)
		}
	}
	for _, img := range images {
		if img != nil && !img.released {
			img.frameRefs(refs)
		}
	}
	return refs
}
