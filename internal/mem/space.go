package mem

import (
	"encoding/binary"
	"fmt"
)

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

	// The page table (see pagetable.go): n entries logged in chunks, the
	// window over the low pages, and the index over the rest.
	chunks tableLog
	n      int
	index  pageIndex
	window [windowPages]uint8

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

func (a *AddressSpace) checkPage(vpn uint64) {
	if a.released {
		panic("mem: use of released address space")
	}
	if vpn >= a.numPages {
		panic(fmt.Sprintf("mem: page %d outside space of %d pages", vpn, a.numPages))
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

func (a *AddressSpace) checkWrite(vpn uint64, off, n int) {
	a.checkPage(vpn)
	if off < 0 || off+n > PageSize {
		panic(fmt.Sprintf("mem: write [%d,%d) outside page", off, off+n))
	}
}

// Write stores b at (vpn, off), faulting in a private copy if the page
// is backed by the base image or by a shared frame (delta
// virtualization's CoW), or a fresh frame if unmapped. It reports
// whether a fault (copy or fill) occurred — the VMM's latency model
// charges faults, not in-place writes.
func (a *AddressSpace) Write(vpn uint64, off int, b []byte) bool {
	a.checkWrite(vpn, off, len(b))
	a.stats.WritesDone++
	e, i := a.probe(vpn)
	faulted := false
	if e == nil {
		if a.base == nil || !a.base.has(vpn) {
			// Unmapped: writing to fresh zero-backed memory.
			id := a.store.AllocZeroFill(off, b) // may return the zero frame for zero writes
			a.add(vpn, i).setFrame(id)
			a.stats.ZeroFills++
			return true
		}
		e, faulted = a.cowFault(vpn, i), true
	}
	if e.isDelta() {
		// A write whose record would pass deltaCap promotes the page and
		// lands in its bytes.
		if !a.appendDelta(e, off, b) {
			copy(a.promote(e).data[off:], b)
		}
		return faulted
	}
	newID, copied := a.store.CowWrite(e.frame(), off, b)
	if copied {
		e.setFrame(newID)
		a.stats.CowFaults++
	}
	return copied
}

// cowFault is a write's CoW fault against the reference image at vpn,
// which probe found absent, stopping at index slot i: a frame of this
// space's own as far as every count goes, a lazy delta with no records
// yet on the host.
func (a *AddressSpace) cowFault(vpn uint64, i int) *entry {
	a.store.count(1)
	a.store.stats.CowCopies++
	a.stats.CowFaults++
	e := a.add(vpn, i)
	e.setDelta(0, 0)
	return e
}

// Touch is one 8-byte write of Val, little-endian, at Off in page VPN:
// the unit a guest dirties its memory in.
type Touch struct {
	VPN uint64
	Off int
	Val uint64
}

// WriteTouches writes ts as Write would one at a time, in order, and
// reports how many of them faulted. The page table, the counters and
// every page's bytes end as those writes leave them; what differs is
// host work. Each batch of touchBatch touches reserves the page table
// for its pages first, so a burst grows it at most once a batch. A
// page's touches are independent of every other page's, so a lazy
// delta's touches in a batch are recorded together — the first
// appearance of each page in order, with at most one overflow buffer
// for all of them — where one at a time the page would move up a size
// class per touch. Every other touch is written as it comes.
func (a *AddressSpace) WriteTouches(ts []Touch) (faults int) {
	for len(ts) > 0 {
		k := min(len(ts), touchBatch)
		faults += a.writeTouches(ts[:k])
		ts = ts[k:]
	}
	return faults
}

func (a *AddressSpace) writeTouches(ts []Touch) (faults int) {
	var (
		vpns   [touchBatch]uint64
		groups [touchBatch]touchGroup
		next   [touchBatch]uint8
		// home maps a grouped page to its group plus one, open-addressed.
		home [2 * touchBatch]uint16
		n    int
	)
	for i := range ts {
		vpns[i] = ts[i].VPN
	}
	a.Reserve(vpns[:len(ts)])
	for i := range ts {
		t := &ts[i]
		a.checkWrite(t.VPN, t.Off, 8)
		h := t.VPN * 0x9E3779B97F4A7C15 >> (64 - touchHomeBits)
		for home[h] != 0 && uint64(groups[home[h]-1].e.vpn) != t.VPN {
			h = (h + 1) % uint64(len(home))
		}
		if g := home[h]; g != 0 {
			a.stats.WritesDone++
			groups[g-1].add(uint8(i), &next)
			continue
		}
		e, at := a.probe(t.VPN)
		if e == nil && a.base != nil && a.base.has(t.VPN) {
			e = a.cowFault(t.VPN, at)
			faults++
		}
		if e == nil || !e.isDelta() {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], t.Val)
			if a.Write(t.VPN, t.Off, b[:]) {
				faults++
			}
			continue
		}
		a.stats.WritesDone++
		groups[n] = touchGroup{e: e, first: uint8(i), last: uint8(i), n: 1}
		n++
		home[h] = uint16(n)
	}
	for i := range groups[:n] {
		a.appendTouches(&groups[i], ts, &next)
	}
	return faults
}

// Reserve sizes the page table for a burst of faults on the pages vpns
// names, so that the burst grows it at most here, once: the chunk list
// for the pages the space does not own yet, and the index for those of
// them it will hold — pages at or above the window, and window pages
// that land past the positions a window byte can name. A window page
// counts once however often vpns names it; a wider one counts each
// time, owned or not. Reserve never shrinks either, makes no index a
// burst does not need, and changes nothing the space reads back.
func (a *AddressSpace) Reserve(vpns []uint64) {
	if a.released {
		panic("mem: use of released address space")
	}
	var seen [windowPages / 64]uint64
	n, wide := 0, 0
	for _, vpn := range vpns {
		switch {
		case vpn >= windowPages:
			wide++
		case a.window[vpn] == 0 && seen[vpn/64]&(1<<(vpn%64)) == 0:
			seen[vpn/64] |= 1 << (vpn % 64)
			n++
		}
	}
	n += wide
	late := max(0, a.n+n-(windowIndexed-1))
	if indexed := min(n, wide+late); indexed > 0 {
		a.growIndex(a.index.Len() + indexed)
	}
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

// PrivatePages returns the number of pages backed by frames this space
// holds exclusively — the VM's incremental memory cost, the quantity
// delta virtualization minimizes: its lazy deltas, and the frames other
// than the zero frame it holds the only reference to. It walks the page
// table, O(owned pages).
func (a *AddressSpace) PrivatePages() int {
	n := 0
	for i := 0; i < a.n; i++ {
		if e := a.at(i); e.isDelta() || e.frame() != a.store.zero && a.store.Refs(e.frame()) == 1 {
			n++
		}
	}
	return n
}

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
				s.overflowFree(e.ovf)
			}
			continue
		}
		s.DecRef(e.frame())
	}
	s.uncount(deltas)
	for _, c := range a.chunks {
		s.chunkFree.Put(c)
	}
	clear(a.chunks)
	a.chunks = a.chunks[:0]
	keep := a.base != nil && a.index.Slots() <= indexMaxRecycle
	a.n = 0
	a.released = true
	a.base = nil
	if !keep {
		a.index = pageIndex{}
		return
	}
	a.index.Clear() // the next clone's faults grow nothing
	s.spaceFree.Put(a)
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
// the count of described frames: images' pages and lazy deltas.
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
