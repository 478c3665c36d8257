// Package mem is the page-granularity memory substrate underneath the
// simulated VMM. It implements the mechanisms Potemkin's "delta
// virtualization" relies on: a machine-wide frame store with reference
// counting, zero-page sharing, optional content-based sharing, per-VM
// address spaces with copy-on-write semantics, and immutable snapshots
// (reference images) that new VMs flash-clone from.
//
// Sharing here is real: clones reference the same frames, a write to a
// shared frame genuinely gets a frame of its own, and accounting is
// derived from the frame table — so the memory-savings experiments (E2)
// measure mechanism behaviour, not a formula.
//
// One rule decides what the frame table holds: a slab frame is something
// that can be shared; a page only one owner can reach is described, not
// stored. A reference image (BuildImage) is the pair (seed, resident
// pages): its content is a pure function of seed and page number, so it
// holds no per-page state and the store counts its frames
// arithmetically. Likewise a clone's CoW fault against its image — a page that by construction
// only that clone can reach — is an entry in the clone's own page table
// recording the bytes written (see entry), and is promoted to an
// ordinary slab frame only when something reads the page, a share pass
// scans it, or its records outgrow deltaCap. What a fault costs the
// simulated machine (a frame, a CowCopies count, PageSize of
// ModeledBytes) is the same either way; only the host cost differs.
//
// A space's page table is an append-only log of 20-byte entries, and a
// map from page number to log position that is direct for the low
// pages: a byte per page below 128, where guests' working sets
// lie, so most faults and reads touch one byte and the entry, and a
// hash index for the pages above it (see pagetable.go).
//
// The frame table is a slab of fixed-size chunks with an intrusive free
// list rather than a map of heap-allocated frames: allocation is a
// free-list pop (or the next slot of the last chunk), freeing is a push,
// and FrameIDs carry a generation number so dangling IDs are caught when
// a slot is reused. No frame records which spaces map it: a space's
// private pages are counted, when asked, from its own page table. Page
// buffers of freed frames, page-table chunks, delta overflow buffers,
// released clones and the arrays a growing page index leaves behind
// (one spare of each size) are recycled through bounded free lists, so
// steady-state VM churn allocates no garbage on the clone/CoW hot paths.
package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"potemkin/internal/free"
)

// PageSize is the page granularity in bytes, matching x86.
const PageSize = 4096

// FrameID names a machine frame in a Store. The zero FrameID is invalid.
//
// IDs pack a slab index (low 32 bits) with the slot's generation (high
// 32 bits). The generation is bumped every time a slot is freed, so an
// ID held across a free/reuse cycle no longer matches its slot and any
// use panics instead of silently aliasing the new tenant.
type FrameID uint64

func makeFrameID(idx, gen uint32) FrameID {
	return FrameID(uint64(gen)<<32 | uint64(idx))
}

func (id FrameID) index() uint32      { return uint32(id) }
func (id FrameID) generation() uint32 { return uint32(id >> 32) }

// frame is one machine page slot in the slab, 32 bytes. Content is
// either explicit bytes, a deterministic pattern (materialized lazily,
// so a full-boot space does not occupy host RAM), or all-zeroes (data ==
// nil, aux == 0). refs == 0 marks a free slot.
type frame struct {
	refs int64
	data *[PageSize]byte

	// aux is the one word three exclusive states share: the seed of a
	// pattern frame not yet materialized (nonzero, data == nil), the
	// dedup bucket key of a hashed frame (always a data frame), and the
	// next free slot while the slot is free.
	aux uint64

	// gen is the slot generation FrameIDs must match; bumped on free.
	gen   uint32
	flags uint8
}

const flagHashed uint8 = 1 // aux is a dedup bucket key

// StoreStats counts frame-store activity.
type StoreStats struct {
	Allocs      uint64 // frames created
	Frees       uint64 // frames destroyed
	CowCopies   uint64 // frames created by copy-on-write faults
	DedupHits   uint64 // allocations satisfied by content sharing
	ZeroHits    uint64 // allocations satisfied by the zero page
	PeakFrames  int    // high-water mark of live frames
	PeakModeled uint64 // high-water mark of modeled bytes
}

// noFreeSlot terminates the intrusive free list.
const noFreeSlot = ^uint32(0)

// slabChunk is the number of frame slots the slab grows by (512 B): a
// power of two, so addressing a slot is a shift and a mask. It is small
// because every simulated server has a store and most hold little in
// the slab — the zero frame, and the pages something read or shared — so
// a chunk is paid per server, not per VM.
const slabChunk = 16

// Store is a machine-wide refcounted frame table shared by every VM on a
// simulated physical host. It is not safe for concurrent use; the VMM is
// single-threaded under the sim kernel.
type Store struct {
	// The slab grows a chunk at a time, so a slot never moves and growth
	// costs the new slots only. Slot 0 is a permanently-dead sentinel so
	// index 0 (and hence FrameID 0) is never valid.
	slab     [][]frame
	slots    uint32 // slots ever carved, including the sentinel
	freeHead uint32
	// live counts live frames: slab slots in use plus the frames that are
	// only described (an image's pages, clones' lazy deltas).
	live int

	// ShareContent enables content-based page sharing: AllocData
	// coalesces identical pages. Zero pages are always shared
	// regardless.
	ShareContent bool

	zero  FrameID
	dedup map[uint64][]FrameID

	// bufPool are page buffers of freed frames. Only frames whose bytes
	// something read or wrote wholesale hold a buffer (lazy deltas and
	// pattern frames do not), so it serves checkpoints, share passes and
	// large writes. chunkFree are page-table chunks and spaceFree
	// released clones, index attached and empty, waiting to be the next
	// clone. The gateway's scrub trims all three (EachPool).
	bufPool   free.Pool[*[PageSize]byte]
	overflow  [deltaClasses]overflowClass
	chunkFree free.Pool[*tableChunk]
	spaceFree free.Pool[*AddressSpace]
	// indexSpare holds, by log2 of its length, one zeroed page-index
	// array for the next index that grows to that size (growIndex).
	indexSpare [indexSpares][]uint32

	stats StoreStats
}

// NewStore returns an empty store with a preallocated shared zero frame.
func NewStore() *Store {
	s := &Store{
		slots:    1, // slot 0 reserved
		freeHead: noFreeSlot,
		dedup:    make(map[uint64][]FrameID),
	}
	// The canonical zero frame holds one permanent self-reference so VM
	// churn can never free it.
	s.zero, _ = s.alloc()
	return s
}

// slot addresses a carved slab index.
func (s *Store) slot(idx uint32) *frame {
	return &s.slab[idx/slabChunk][idx%slabChunk]
}

// count records n frames coming to life. The arithmetic is the same
// whether they take slab slots or are only described.
func (s *Store) count(n int) {
	s.live += n
	s.stats.Allocs += uint64(n)
	if s.live > s.stats.PeakFrames {
		s.stats.PeakFrames = s.live
		s.stats.PeakModeled = uint64(s.live) * PageSize
	}
}

// uncount records n frames going away.
func (s *Store) uncount(n int) {
	s.live -= n
	s.stats.Frees += uint64(n)
}

// alloc counts a new frame and carves its slot.
func (s *Store) alloc() (FrameID, *frame) {
	s.count(1)
	return s.carve()
}

// carve takes a frame slot (free-list pop or the slab's next) with
// refs == 1, counting nothing: promoting a described page to a slab
// frame gives a frame the store already counts a slot.
func (s *Store) carve() (FrameID, *frame) {
	var f *frame
	idx := s.freeHead
	if idx != noFreeSlot {
		f = s.slot(idx)
		s.freeHead = uint32(f.aux)
		f.aux = 0
	} else {
		idx = s.slots
		if idx >= deltaTag {
			panic("mem: frame slab full") // page-table entries tag bit 31
		}
		if int(idx/slabChunk) == len(s.slab) {
			s.slab = append(s.slab, make([]frame, slabChunk))
		}
		s.slots++
		f = s.slot(idx)
		f.gen = 1
	}
	f.refs = 1
	return makeFrameID(idx, f.gen), f
}

// free returns a slot to the free list, bumping its generation so stale
// FrameIDs are caught, and recycles its page buffer.
func (s *Store) free(idx uint32, f *frame) {
	if f.data != nil {
		s.putBuf(f.data)
		f.data = nil
	}
	f.flags = 0
	f.gen++
	f.aux = uint64(s.freeHead)
	s.freeHead = idx
	s.uncount(1)
}

func (s *Store) getBuf() *[PageSize]byte {
	if b, ok := s.bufPool.Get(); ok {
		return b
	}
	return new([PageSize]byte)
}

func (s *Store) putBuf(b *[PageSize]byte) {
	s.bufPool.Put(b)
}

// chunkKeep is how many times its largest period's demand the chunk
// pool keeps, where every other pool keeps one: a clone takes chunks
// over its whole life, not just at its clone, so a burst's clones go
// on asking for chunks in the periods after it, while the first ones
// they freed are still to come back.
const chunkKeep = 2

// EachPool visits the store's free lists, each with the multiple of its
// largest period's demand that a trim keeps. The gateway's scrub trims
// them, through its farm and the farm's servers.
func (s *Store) EachPool(fn func(name string, p free.Trimmer, keep int)) {
	fn("mem.bufs", &s.bufPool, 1)
	fn("mem.chunks", &s.chunkFree, chunkKeep)
	fn("mem.spaces", &s.spaceFree, 1)
}

// Stats returns a copy of the store counters.
func (s *Store) Stats() StoreStats { return s.stats }

// ZeroFrame returns the canonical all-zero frame with an added reference.
func (s *Store) ZeroFrame() FrameID {
	s.must(s.zero).refs++
	s.stats.ZeroHits++
	return s.zero
}

// IsZeroFrame reports whether id is the canonical zero frame.
func (s *Store) IsZeroFrame(id FrameID) bool { return id == s.zero }

// ModeledBytes returns the machine memory the frames would occupy on real
// hardware: one PageSize per live frame. This is the quantity the
// paper's VMs-per-server arithmetic is about. O(1): derived from the
// incremental live-frame counter, so sampling it in a loop (E2 does)
// costs nothing.
func (s *Store) ModeledBytes() uint64 { return uint64(s.live) * PageSize }

// Refs returns the reference count of a frame.
func (s *Store) Refs(id FrameID) int64 {
	return s.must(id).refs
}

func (s *Store) must(id FrameID) *frame {
	idx := id.index()
	if idx == 0 || idx >= s.slots {
		panic(fmt.Sprintf("mem: dangling frame %d", id))
	}
	f := s.slot(idx)
	if f.gen != id.generation() || f.refs <= 0 {
		panic(fmt.Sprintf("mem: dangling frame %d", id))
	}
	return f
}

// alive reports whether a frame id is still present.
func (s *Store) alive(id FrameID) bool {
	idx := id.index()
	if idx == 0 || idx >= s.slots {
		return false
	}
	f := s.slot(idx)
	return f.gen == id.generation() && f.refs > 0
}

// IncRef adds a reference to a frame.
func (s *Store) IncRef(id FrameID) {
	s.must(id).refs++
}

// DecRef drops a reference, freeing the frame at zero.
func (s *Store) DecRef(id FrameID) {
	s.decRef(id, s.must(id))
}

func (s *Store) decRef(id FrameID, f *frame) {
	f.refs--
	if f.refs < 0 {
		panic(fmt.Sprintf("mem: negative refcount on frame %d", id))
	}
	if f.refs == 0 {
		if f.flags&flagHashed != 0 {
			s.dropDedup(f.aux, id)
		}
		s.free(id.index(), f)
	}
}

func (s *Store) dropDedup(hash uint64, id FrameID) {
	list := s.dedup[hash]
	for i, v := range list {
		if v == id {
			list[i] = list[len(list)-1]
			list = list[:len(list)-1]
			break
		}
	}
	if len(list) == 0 {
		delete(s.dedup, hash)
	} else {
		s.dedup[hash] = list
	}
}

// render writes f's content into buf and leaves f as it found it.
// Recycled buffers carry stale content, so every case overwrites all of
// buf.
func (s *Store) render(f *frame, buf *[PageSize]byte) {
	switch {
	case f.data != nil:
		*buf = *f.data
	case f.aux != 0: // a pattern seed: only data frames are hashed
		fillPattern(buf[:], f.aux)
	default:
		clear(buf[:])
	}
}

// materialize ensures f.data holds explicit bytes. It is the one place
// a pattern frame turns into an ordinary data frame, and every reader of
// a frame's bytes comes through it.
func (s *Store) materialize(f *frame) []byte {
	if f.data == nil {
		buf := s.getBuf()
		s.render(f, buf)
		f.aux = 0
		f.data = buf
	}
	return f.data[:]
}

// fillPattern writes a deterministic, seed-dependent byte pattern.
func fillPattern(dst []byte, seed uint64) {
	x := seed
	for i := 0; i+8 <= len(dst); i += 8 {
		// splitmix64 step
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(dst[i:], z^(z>>31))
	}
}

// isAllZero scans a word (uint64) at a time; pages are 8-byte aligned in
// length so the tail loop is for short slices only.
func isAllZero(b []byte) bool {
	for len(b) >= 8 {
		if binary.LittleEndian.Uint64(b) != 0 {
			return false
		}
		b = b[8:]
	}
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// AllocData allocates a frame holding a copy of b (which must be
// PageSize long), returning the zero frame for all-zero content and a
// deduplicated frame when ShareContent is on.
func (s *Store) AllocData(b []byte) FrameID {
	if len(b) != PageSize {
		panic(fmt.Sprintf("mem: AllocData with %d bytes", len(b)))
	}
	if isAllZero(b) {
		return s.ZeroFrame()
	}
	if s.ShareContent {
		h := contentHash(b)
		for _, cand := range s.dedup[h] {
			f := s.must(cand)
			if bytes.Equal(s.materialize(f), b) {
				f.refs++
				s.stats.DedupHits++
				return cand
			}
		}
		id, f := s.alloc()
		f.data = s.getBuf()
		copy(f.data[:], b)
		f.aux = h
		f.flags |= flagHashed
		s.dedup[h] = append(s.dedup[h], id)
		return id
	}
	id, f := s.alloc()
	f.data = s.getBuf()
	copy(f.data[:], b)
	return id
}

// AllocZeroFill allocates a frame whose content is all-zero except b
// written at off — the zero-fill fault path for writes to unmapped
// pages. It avoids building a scratch page: small writes of zeroes still
// coalesce onto the zero frame, and under ShareContent the constructed
// page participates in dedup exactly as AllocData would.
func (s *Store) AllocZeroFill(off int, b []byte) FrameID {
	if off < 0 || off+len(b) > PageSize {
		panic(fmt.Sprintf("mem: write [%d,%d) outside page", off, off+len(b)))
	}
	if isAllZero(b) {
		return s.ZeroFrame()
	}
	if s.ShareContent {
		// Dedup needs the full page bytes to hash; build it in a pooled
		// buffer and hand it to the regular dedup path.
		buf := s.getBuf()
		clear(buf[:])
		copy(buf[off:], b)
		id := s.AllocData(buf[:])
		s.putBuf(buf)
		return id
	}
	id, f := s.alloc()
	buf := s.getBuf()
	clear(buf[:])
	copy(buf[off:], b)
	f.data = buf
	return id
}

// contentHash hashes a page a word (uint64) at a time: FNV-style
// combine per word with a final avalanche. Only used as a dedup bucket
// key (matches are verified byte-for-byte), so the exact function may
// change; it must only be deterministic within a process.
func contentHash(b []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for len(b) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(b)) * 0x100000001b3
		b = b[8:]
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	// splitmix64 finalizer: the FNV word loop alone mixes high bytes
	// poorly.
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

func bytesEqual(a, b []byte) bool { return bytes.Equal(a, b) }

// AllocPattern allocates a frame whose content is a deterministic
// function of seed, without materializing bytes. Full-boot spaces use
// this so a 128 MiB guest costs no host page buffers until read. seed
// must be nonzero.
func (s *Store) AllocPattern(seed uint64) FrameID {
	if seed == 0 {
		panic("mem: AllocPattern with zero seed")
	}
	id, f := s.alloc()
	f.aux = seed
	return id
}

// View returns the frame's content for reading. The returned slice must
// not be modified; use CowWrite for writes. Pattern frames are
// materialized on first view.
func (s *Store) View(id FrameID) []byte {
	f := s.must(id)
	if f.data == nil && f.aux == 0 {
		return zeroPage[:]
	}
	return s.materialize(f)
}

var zeroPage [PageSize]byte

// CowWrite writes b at offset off into the page, performing
// copy-on-write: if the frame is shared (refs > 1) a private copy is
// created and returned; otherwise the write happens in place. The
// (possibly new) frame ID is returned along with whether a copy
// happened.
func (s *Store) CowWrite(id FrameID, off int, b []byte) (FrameID, bool) {
	if off < 0 || off+len(b) > PageSize {
		panic(fmt.Sprintf("mem: write [%d,%d) outside page", off, off+len(b)))
	}
	f := s.must(id)
	if f.refs > 1 {
		// Shared: copy, drop our reference on the original.
		f.refs--
		nid, nf := s.alloc()
		buf := s.getBuf()
		nf.data = buf
		copy(buf[:], s.View(id))
		copy(buf[off:], b)
		s.stats.CowCopies++
		return nid, true
	}
	// Exclusive. A frame that was registered for dedup changes content,
	// so its hash entry must be dropped.
	if f.flags&flagHashed != 0 {
		s.dropDedup(f.aux, id)
		f.flags &^= flagHashed
		f.aux = 0
	}
	copy(s.materialize(f)[off:], b)
	return id, false
}

// CheckRefs verifies that every slab frame's reference count equals the
// number of external references reported by refs (plus the zero frame's
// permanent self-reference), and that the slab's frames plus the
// described ones refs reports under FrameID 0 (see ExternalRefs) are
// exactly the frames the store counts live. It returns an error
// describing the first discrepancy. Tests use it as the leak detector.
func (s *Store) CheckRefs(external map[FrameID]int64) error {
	seen := make(map[FrameID]int64, len(external))
	for id, n := range external {
		seen[id] = n
	}
	described := seen[0]
	delete(seen, 0)
	seen[s.zero]++ // permanent self-reference
	inSlab := 0
	for idx := uint32(1); idx < s.slots; idx++ {
		f := s.slot(idx)
		if f.refs <= 0 {
			continue // free slot
		}
		inSlab++
		id := makeFrameID(idx, f.gen)
		if f.refs != seen[id] {
			return fmt.Errorf("mem: frame %d has %d refs, expected %d", id, f.refs, seen[id])
		}
		delete(seen, id)
	}
	for id, n := range seen {
		if n != 0 {
			return fmt.Errorf("mem: %d external refs to missing frame %d", n, id)
		}
	}
	if int64(s.live) != int64(inSlab)+described {
		return fmt.Errorf("mem: %d frames live, but %d in the slab and %d described", s.live, inSlab, described)
	}
	return nil
}
