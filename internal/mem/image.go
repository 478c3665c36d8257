package mem

import "fmt"

// Image is an immutable memory snapshot — the "reference image" flash
// cloning starts from. Clones attach to it as overlays: creating one
// costs nothing per page, and a clone pays for a page only when it
// writes it (delta virtualization). The image must outlive its clones;
// Release enforces that.
type Image struct {
	store *Store
	// pages maps vpn to the backing frame, 0 where the image has none.
	// Images are dense from page 0, so a slice indexed by vpn is both
	// smaller than a map and a fault's cheapest probe; it is only as
	// long as the highest page backed.
	pages    []FrameID
	resident int // nonzero entries of pages
	numPages uint64
	clones   uint64 // total clones ever created
	live     int64  // clones currently attached
	released bool
}

// Snapshot freezes the current contents of a scratch address space as
// an Image. The source space remains usable; its pages become shared,
// so its next write to each page will CoW. Snapshotting an overlay
// (cloned) space is not supported.
func Snapshot(a *AddressSpace) *Image {
	if a.released {
		panic("mem: snapshot of released space")
	}
	if a.base != nil {
		panic("mem: snapshot of cloned space not supported")
	}
	var top uint64
	for vpn := range a.pages {
		top = max(top, vpn+1)
	}
	img := &Image{
		store:    a.store,
		pages:    make([]FrameID, top),
		resident: len(a.pages),
		numPages: a.numPages,
	}
	for vpn, pte := range a.pages {
		a.store.IncRef(pte.Frame)
		img.pages[vpn] = pte.Frame
		if pte.Private {
			a.pages[vpn] = PTE{Frame: pte.Frame} // now shared
		}
	}
	return img
}

// BuildImage synthesizes a reference image directly: residentPages
// pattern pages (deterministic content derived from seed) out of
// numPages total. This stands in for a booted guest OS snapshot without
// holding its bytes in host RAM.
func BuildImage(store *Store, numPages, residentPages, seed uint64) *Image {
	if residentPages > numPages {
		panic(fmt.Sprintf("mem: resident %d > total %d", residentPages, numPages))
	}
	img := &Image{
		store:    store,
		pages:    make([]FrameID, residentPages),
		resident: int(residentPages),
		numPages: numPages,
	}
	for i := range img.pages {
		img.pages[i] = store.AllocPattern(seed + uint64(i) + 1)
	}
	return img
}

// NewPatternSpace builds a private (unshared) scratch space with the
// same synthetic content BuildImage(store, numPages, residentPages,
// seed) would produce. It is the full-copy baseline against which delta
// virtualization is compared: every resident page costs a frame.
func NewPatternSpace(store *Store, numPages, residentPages, seed uint64) *AddressSpace {
	if residentPages > numPages {
		panic(fmt.Sprintf("mem: resident %d > total %d", residentPages, numPages))
	}
	a := NewAddressSpace(store, numPages)
	for i := uint64(0); i < residentPages; i++ {
		a.setPage(i, PTE{Frame: store.AllocPattern(seed + i + 1), Private: true})
	}
	return a
}

// NumPages returns the guest-physical size in pages.
func (img *Image) NumPages() uint64 { return img.numPages }

// ResidentPages returns the number of pages the image actually backs.
func (img *Image) ResidentPages() int { return img.resident }

// frame returns the frame backing vpn, or 0 if the image has none.
func (img *Image) frame(vpn uint64) FrameID {
	if vpn < uint64(len(img.pages)) {
		return img.pages[vpn]
	}
	return 0
}

// Clones returns how many address spaces have been cloned from the
// image over its lifetime.
func (img *Image) Clones() uint64 { return img.clones }

// LiveClones returns how many clones are currently attached.
func (img *Image) LiveClones() int64 { return img.live }

// NewClone attaches a new overlay address space to the image. This is
// the memory half of flash cloning: O(1) work, zero frame copies, zero
// new page-table entries until the clone writes.
func (img *Image) NewClone() *AddressSpace {
	if img.released {
		panic("mem: clone of released image")
	}
	a, ok := pop(&img.store.spaceFree)
	if ok {
		// A released clone: its page table is attached and empty, its
		// counters are whatever its last tenant left.
		*a = AddressSpace{store: a.store, pages: a.pages}
	} else {
		a = &AddressSpace{store: img.store, pages: make(map[uint64]PTE)}
	}
	a.base, a.numPages = img, img.numPages
	img.clones++
	img.live++
	return a
}

// Release drops the image's frame references. All clones must be
// released first; Release panics otherwise, because overlay clones read
// through the image.
func (img *Image) Release() {
	if img.released {
		return
	}
	if img.live > 0 {
		panic(fmt.Sprintf("mem: releasing image with %d live clones", img.live))
	}
	for _, id := range img.pages {
		if id != 0 {
			img.store.DecRef(id)
		}
	}
	img.pages, img.resident = nil, 0
	img.released = true
}

// frameRefs accumulates the image's references per frame.
func (img *Image) frameRefs(into map[FrameID]int64) {
	for _, id := range img.pages {
		if id != 0 {
			into[id]++
		}
	}
}
