package mem

import "fmt"

// Image is an immutable memory snapshot — the "reference image" flash
// cloning starts from. Clones attach to it as overlays: creating one
// costs nothing per page, and a clone pays for a page only when it
// writes it (delta virtualization). An image is never released: it
// lives as long as its store, so it outlives its clones.
//
// There are two kinds. A synthetic image (BuildImage) is described:
// page vpn < resident reads fillPattern(seed+vpn+1), the store counts
// its frames without holding any, and the image costs the host these
// few words whatever its size. A Snapshot image holds a reference on
// each frame of the space it froze.
type Image struct {
	store     *Store
	synthetic bool
	seed      uint64
	// pages maps vpn to a Snapshot image's backing frame, 0 where it has
	// none. Spaces are dense from page 0, so a slice indexed by vpn is
	// both smaller than a map and a fault's cheapest probe; it is only
	// as long as the highest page backed.
	pages    []FrameID
	resident int // pages backed
	numPages uint64
	clones   uint64 // total clones ever created
}

// maxImagePages bounds the pages an image backs: a lazy delta keeps its
// image page's number in the low word of its entry's vpn (see entry).
// Image specs are compiled in, so exceeding it is a bug, not an input
// error, and panics.
const maxImagePages = 1 << 32

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
	for i := 0; i < a.n; i++ {
		top = max(top, a.at(i).page()+1)
	}
	if top > maxImagePages {
		panic(fmt.Sprintf("mem: snapshot of page %d: an image backs pages below 2^32", top-1))
	}
	img := &Image{
		store:    a.store,
		pages:    make([]FrameID, top),
		resident: a.n,
		numPages: a.numPages,
	}
	for i := 0; i < a.n; i++ {
		e := a.at(i) // a frame: only a clone has lazy deltas
		a.store.IncRef(e.frame())
		img.pages[e.page()] = e.frame()
	}
	return img
}

// BuildImage synthesizes a reference image directly: residentPages
// pattern pages (deterministic content derived from seed) out of
// numPages total. This stands in for a booted guest OS snapshot without
// holding its bytes, or anything else per page, in host RAM.
func BuildImage(store *Store, numPages, residentPages, seed uint64) *Image {
	if residentPages > numPages {
		panic(fmt.Sprintf("mem: resident %d > total %d", residentPages, numPages))
	}
	if residentPages > maxImagePages {
		panic(fmt.Sprintf("mem: resident %d: an image backs pages below 2^32", residentPages))
	}
	if seed+residentPages < seed {
		panic("mem: BuildImage seed wraps to a zero pattern seed")
	}
	store.count(int(residentPages))
	return &Image{
		store:     store,
		synthetic: true,
		seed:      seed,
		resident:  int(residentPages),
		numPages:  numPages,
	}
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
	for vpn := uint64(0); vpn < residentPages; vpn++ {
		_, i := a.probe(vpn)
		a.mapFrame(vpn, i, store.AllocPattern(seed+vpn+1))
	}
	return a
}

// ResidentPages returns the number of pages the image actually backs.
func (img *Image) ResidentPages() int { return img.resident }

// has reports whether the image backs vpn.
func (img *Image) has(vpn uint64) bool {
	if img.synthetic {
		return vpn < uint64(img.resident)
	}
	return vpn < uint64(len(img.pages)) && img.pages[vpn] != 0
}

// render writes the content of vpn, which the image must back, into
// buf.
func (img *Image) render(vpn uint64, buf *[PageSize]byte) {
	if img.synthetic {
		fillPattern(buf[:], img.seed+vpn+1)
		return
	}
	img.store.render(img.store.must(img.pages[vpn]), buf)
}

// NewClone attaches a new overlay address space to the image. This is
// the memory half of flash cloning: O(1) work, zero frame copies, zero
// new page-table entries until the clone writes.
func (img *Image) NewClone() *AddressSpace {
	a, ok := pop(&img.store.spaceFree)
	if ok {
		// A released clone: its index is attached and empty, its counters
		// are whatever its last tenant left.
		*a = AddressSpace{store: a.store, chunks: a.chunks, index: a.index}
	} else {
		a = &AddressSpace{store: img.store}
	}
	a.base, a.numPages = img, img.numPages
	img.clones++
	return a
}

// frameRefs accumulates the image's references per frame; a synthetic
// image's pages count under FrameID 0.
func (img *Image) frameRefs(into map[FrameID]int64) {
	if img.synthetic {
		into[0] += int64(img.resident)
	}
	for _, id := range img.pages {
		if id != 0 {
			into[id]++
		}
	}
}
