package mem

import (
	"encoding/binary"
	"math/bits"

	"potemkin/internal/flatindex"
	"potemkin/internal/free"
)

// The page table of an AddressSpace is an append-only log of entries in
// fixed-size chunks — growth never copies, iteration is fault order, and
// a released clone's chunks go back to the store whole — and a map from
// page number to log position in two parts: a direct-mapped window for
// the pages below windowPages, where a guest's working set lies, and a
// flatindex.Index for the rest. Pages are never unmapped one at a time,
// so none of these structures deletes.

// entry is one owned page: 20 bytes and free of Go pointers, so the
// collector never scans a page table. With deltaTag clear in lo, the
// page is a frame; with it set, a lazy delta: the image's page with
// write records applied in order, the inline one first and the overflow
// buffer's after. No FrameID's low word has the tag, because the slab
// stops short of 2^31 slots.
//
//	field  frame                          lazy delta
//	vpn    page number, low word          page number
//	lo     FrameID, low word              deltaTag | overflow bytes<<16 | inline header
//	ovf    FrameID, high word             overflow buffer handle
//	rec    page number, high word (0:4)   the inline record's bytes
//
// A lazy delta's page is an image's, and no image backs a page at or
// above 2^32 (BuildImage enforces it), so vpn holds all of it and rec is
// free for its first record: a write of at most deltaInline bytes, which
// a guest's 8-byte touch is, whose short header sits in lo's low 16 bits
// (0 for none). Most dirty pages hold that one touch and nothing else.
// Every record after the first goes to the overflow buffer, and so does
// a first record too long for rec, because the inline record applies
// first. page reads either kind's page number.
//
// A lazy delta is a frame as far as the simulated machine can tell
// (counted live, private to its space, a CowCopies), but it has no slab
// slot: only its own clone can reach it, and anything that would let it
// be shared or outlive the clone's image — a read, a share pass — sees
// it promoted to an ordinary data frame first.
type entry struct {
	vpn uint32
	lo  uint32
	ovf uint32
	rec [deltaInline]byte
}

const deltaTag = 1 << 31

func (e *entry) isDelta() bool { return e.lo&deltaTag != 0 }

// inlHdr is a lazy delta's inline record header, 0 if it has none.
func (e *entry) inlHdr() uint16 { return uint16(e.lo) }

// inlLen is the size of a lazy delta's inline record, 0 if it has none.
func (e *entry) inlLen() int {
	if n := int(e.inlHdr() >> 12); n > 0 {
		return deltaShortHdr + n
	}
	return 0
}

func (e *entry) ovfLen() int { return int(e.lo &^ deltaTag >> 16) }

func (e *entry) setDelta(inlHdr uint16, ovfLen int) {
	e.lo = deltaTag | uint32(ovfLen)<<16 | uint32(inlHdr)
}

func (e *entry) frame() FrameID { return FrameID(uint64(e.ovf)<<32 | uint64(e.lo)) }

func (e *entry) setFrame(id FrameID) { e.lo, e.ovf = uint32(id), uint32(id>>32) }

// page is the entry's page number.
func (e *entry) page() uint64 {
	if e.isDelta() {
		return uint64(e.vpn)
	}
	return uint64(binary.LittleEndian.Uint32(e.rec[:]))<<32 | uint64(e.vpn)
}

// setPage sets the page number as a frame holds it, which is also a
// lazy delta's: an image's page has no high word.
func (e *entry) setPage(vpn uint64) {
	e.vpn = uint32(vpn)
	binary.LittleEndian.PutUint32(e.rec[:], uint32(vpn>>32))
}

// A delta record is a header and the bytes written. A write of 1 to
// deltaShortMax bytes (a guest's 8-byte touch is one) has a 2-byte
// header, off | n<<12 as a little-endian uint16; a longer one has a
// 4-byte header, off and n as two. off < PageSize = 1<<12, so the first
// uint16 of the long form has its top four bits clear, which is how a
// reader tells the forms apart.
//
// deltaInline is the longest write whose record sits inline. A page
// whose records would pass deltaCap (32 touches) is promoted instead,
// which bounds what a read has to replay. Overflow buffers come in size
// classes deltaStep bytes apart — one touch — up to deltaCap, so a page
// pays for the records it has (to within 9 bytes) rather than for the
// cap. deltaCap counts the inline record too, so a page of touches takes
// its 32nd in a 310-byte buffer, and only a page whose first record was
// too long for rec reaches the 320-byte class.
const (
	deltaShortHdr = 2
	deltaHdr      = 4
	deltaShortMax = 15
	deltaInline   = 8
	deltaCap      = 320
	deltaStep     = 10
	deltaClasses  = deltaCap / deltaStep // 10, 20, 30, ..., 320
)

// recordSize is the size of the record of an n-byte write.
func recordSize(n int) int {
	if n <= deltaShortMax {
		return deltaShortHdr + n
	}
	return deltaHdr + n
}

// deltaClass is the index of the smallest overflow size class holding n
// bytes (1 <= n <= deltaCap).
func deltaClass(n int) int { return (n - 1) / deltaStep }

// nextRecord reads the record at the front of recs: where its bytes go,
// and where in recs they are.
func nextRecord(recs []byte) (off, start, end int) {
	h := int(binary.LittleEndian.Uint16(recs))
	if n := h >> 12; n > 0 {
		return h & (PageSize - 1), deltaShortHdr, deltaShortHdr + n
	}
	return h, deltaHdr, deltaHdr + int(binary.LittleEndian.Uint16(recs[2:]))
}

// applyDelta replays write records onto page.
func applyDelta(page, recs []byte) {
	for len(recs) > 0 {
		off, start, end := nextRecord(recs)
		copy(page[off:], recs[start:end])
		recs = recs[end:]
	}
}

// overflowClass is the store's arena for one size class of overflow
// buffers. A buffer is named by a handle — class in the top five bits,
// position below — rather than held by pointer, which is what keeps
// entries pointer-free. Like the slab, the arena grows a chunk at a
// time, never moves a buffer, and keeps what its peak needed.
type overflowClass struct {
	chunks [][]byte
	carved uint32
	free   free.List[uint32]
}

// A chunk is at most overflowChunkBytes: as many buffers of its class as
// fit, rounded down to a power of two (64 of 10 B, 32 of 20 or 30 B, 16
// of 40–60 B, 8 of 70–120 B, 4 of 130–250 B, 2 of 260–320 B), so
// locating a buffer is a shift and a mask. A store holds the uncarved
// tail of one chunk for every class it has used, and every simulated
// server has a store, so the tails are paid per server: a chunk less
// one buffer in each of 32 classes, at most 17,860 B.
const (
	overflowChunkBytes = 1024
	overflowPosBits    = 27
	overflowPosMask    = 1<<overflowPosBits - 1
)

// overflowShift is, by class, log2 of the buffers in one chunk.
var overflowShift = func() (shift [deltaClasses]uint8) {
	for c := range shift {
		shift[c] = uint8(bits.Len(uint(overflowChunkBytes/((c+1)*deltaStep))) - 1)
	}
	return shift
}()

func (s *Store) overflowAlloc(class int) uint32 {
	oc := &s.overflow[class]
	pos, ok := oc.free.Get()
	if !ok {
		pos = oc.carved
		if pos > overflowPosMask {
			panic("mem: overflow arena full") // the handle has 27 bits of position
		}
		if shift := overflowShift[class]; pos&(1<<shift-1) == 0 {
			oc.chunks = append(oc.chunks, make([]byte, (class+1)*deltaStep<<shift))
		}
		oc.carved++
	}
	return uint32(class)<<overflowPosBits | pos
}

// overflowSize is the size of the buffer behind a handle.
func overflowSize(handle uint32) int {
	return int(handle>>overflowPosBits+1) * deltaStep
}

// overflowBuf is the whole buffer behind a handle; the entry knows how
// much of it is records.
func (s *Store) overflowBuf(handle uint32) []byte {
	class, pos, size := handle>>overflowPosBits, handle&overflowPosMask, uint32(overflowSize(handle))
	shift := overflowShift[class]
	start := pos & (1<<shift - 1) * size
	return s.overflow[class].chunks[pos>>shift][start : start+size]
}

func (s *Store) overflowFree(handle uint32) {
	oc := &s.overflow[handle>>overflowPosBits]
	oc.free.Put(handle & overflowPosMask)
}

// chunkEntries sizes a page-table chunk (640 B): a guest's start burst
// and the touches that follow fit two.
const chunkEntries = 32

type tableChunk [chunkEntries]entry

// tableLog is the log's chunks, which is what the index reads: a handle
// is a log position plus one (0 is an empty slot) as a uint32 — a space
// cannot own 2^32 pages, whose entries alone would be 80 GiB — and its
// key is the entry's page, hashed as it is (the index mixes it).
type tableLog []*tableChunk

func (l tableLog) Key(pos uint32) uint64 { return l[(pos-1)/chunkEntries][(pos-1)%chunkEntries].page() }

func (tableLog) Hash(vpn uint64) uint64 { return vpn }

// pageIndex maps an owned vpn the window does not hold to its log
// position plus one. A fault probes it once: the slot a miss stopped at
// is where add inserts.
type pageIndex = flatindex.Index[uint64, uint32, tableLog]

// windowPages is how many page numbers, from 0, a space maps directly:
// the working sets of the builtin guest profiles (64 to 128 pages) fit,
// so most faults never reach the index. A window byte is the page's log
// position plus one, 0 for a page the space does not own, or
// windowIndexed for one the index holds because its position plus one
// does not fit below windowIndexed (the space's 255th page and later).
const (
	windowPages   = 128
	windowIndexed = 0xFF
)

// indexMaxRecycle is the largest index, in slots, a released clone
// keeps (8 KiB, up to 1,536 pages past the window): Release clears all
// of it, so one that held a whole image would tax every later tenant.
// It bounds the store's spare index arrays too, one per power-of-two
// size up to it (indexSpares classes, at most 16 KiB in all).
const (
	indexMaxRecycle = 2048
	indexSpares     = 12 // log2(indexMaxRecycle) + 1
)

// at addresses position i of the log.
func (a *AddressSpace) at(i int) *entry {
	return &a.chunks[i/chunkEntries][i%chunkEntries]
}

// probe looks vpn up: its entry if the space owns the page, else nil
// and the index slot an entry for it would take, or -1 if the lookup
// stopped at the window.
func (a *AddressSpace) probe(vpn uint64) (*entry, int) {
	if vpn < windowPages {
		switch w := a.window[vpn]; w {
		case 0:
			return nil, -1
		case windowIndexed:
		default:
			return a.at(int(w - 1)), -1
		}
	}
	pos, i := a.index.Find(a.chunks, vpn)
	if pos == 0 {
		return nil, i
	}
	return a.at(int(pos - 1)), i
}

// add appends an entry for vpn, which probe just found absent, stopping
// at i. The caller sets the rest; whatever a previous tenant of the
// chunk left in rec and ovf is dead because the new lo says how much of
// it counts.
func (a *AddressSpace) add(vpn uint64, i int) *entry {
	if a.n == len(a.chunks)*chunkEntries {
		a.chunks = append(a.chunks, a.store.newChunk())
	}
	e := a.at(a.n)
	a.n++
	e.setPage(vpn)
	if vpn < windowPages {
		if a.n < windowIndexed {
			a.window[vpn] = uint8(a.n)
			return e
		}
		a.window[vpn] = windowIndexed
	}
	if a.index.Full() {
		a.growIndex(a.index.Len() + 1)
		i = -1 // slot i went with the old slots
	}
	if i < 0 {
		a.index.Insert(a.chunks, uint32(a.n))
	} else {
		a.index.InsertAt(a.chunks, uint32(a.n), i)
	}
	return e
}

// newChunk is a page-table chunk from the store's pool, or a new one.
func (s *Store) newChunk() *tableChunk {
	if c, ok := s.chunkFree.Get(); ok {
		return c
	}
	return new(tableChunk)
}

// growIndex moves the page index to the smallest size that holds n
// entries, if it is smaller. The new slots come from the store's spare
// of their size when it has one, and the outgrown ones, cleared, become
// the spare of theirs.
func (a *AddressSpace) growIndex(n int) {
	size := flatindex.SlotsFor(n)
	if size <= a.index.Slots() {
		return
	}
	s := a.store
	var slots []uint32
	if size <= indexMaxRecycle {
		c := bits.TrailingZeros(uint(size))
		slots, s.indexSpare[c] = s.indexSpare[c], nil
	}
	if slots == nil {
		slots = make([]uint32, size)
	}
	old := a.index.Resize(a.chunks, slots)
	if outgrown := len(old); outgrown > 0 && outgrown <= indexMaxRecycle {
		clear(old)
		s.indexSpare[bits.TrailingZeros(uint(outgrown))] = old
	}
}

// appendDelta records a write of b at off on lazy delta e: inline if it
// is the page's first record and short enough, else at the end of the
// overflow buffer. It reports false, recording nothing, when the page's
// records would outgrow deltaCap.
func (a *AddressSpace) appendDelta(e *entry, off int, b []byte) bool {
	if len(b) == 0 {
		return true
	}
	need := recordSize(len(b))
	recs := e.inlLen() + e.ovfLen()
	if recs+need > deltaCap {
		return false
	}
	if recs == 0 && len(b) <= deltaInline {
		e.setDelta(uint16(off|len(b)<<12), 0)
		putBytes(e.rec[:], b)
		return true
	}
	putRecord(a.growOverflow(e, need), off, b)
	return true
}

// growOverflow makes room for need more bytes of records after lazy
// delta e's overflow, in the smallest size class that holds them all,
// counts them, and returns the room.
func (a *AddressSpace) growOverflow(e *entry, need int) []byte {
	s := a.store
	ovf := e.ovfLen()
	if ovf == 0 {
		e.ovf = s.overflowAlloc(deltaClass(need))
	} else if ovf+need > overflowSize(e.ovf) {
		// Move up a size class; the outgrown buffer goes back to its own.
		grown := s.overflowAlloc(deltaClass(ovf + need))
		copy(s.overflowBuf(grown), s.overflowBuf(e.ovf)[:ovf])
		s.overflowFree(e.ovf)
		e.ovf = grown
	}
	e.setDelta(e.inlHdr(), ovf+need)
	return s.overflowBuf(e.ovf)[ovf : ovf+need]
}

// putRecord writes the record of a write of b at off to the front of
// dst, which has room for it.
func putRecord(dst []byte, off int, b []byte) {
	if len(b) <= deltaShortMax {
		binary.LittleEndian.PutUint16(dst, uint16(off|len(b)<<12))
		putBytes(dst[deltaShortHdr:], b)
		return
	}
	binary.LittleEndian.PutUint32(dst, uint32(uint16(off))|uint32(uint16(len(b)))<<16)
	copy(dst[deltaHdr:], b)
}

// putBytes copies b to the front of dst. An 8-byte write (a guest's
// touch) is one store: a variable-length copy would cost a call to
// memmove.
func putBytes(dst, b []byte) {
	if len(b) == 8 {
		binary.LittleEndian.PutUint64(dst, binary.LittleEndian.Uint64(b))
		return
	}
	copy(dst, b)
}

// touchBatch is how many touches WriteTouches groups by page at a time:
// a guest's burst chunk. touchHomeBits sizes its page-to-group table at
// twice that, so a probe passes few occupied slots.
const (
	touchBatch    = 256
	touchHomeBits = 9
)

// touchRecord is the size of a touch's record.
const touchRecord = deltaShortHdr + 8

// touchGroup is one lazy delta's touches in a batch, in order: a list
// from first through the batch's next links, n long.
type touchGroup struct {
	e           *entry
	first, last uint8
	n           uint16
}

func (g *touchGroup) add(i uint8, next *[touchBatch]uint8) {
	next[g.last] = i
	g.last = i
	g.n++
}

// appendTouches records group g's touches on its lazy delta, in order,
// as appendDelta would one at a time: the first by appendDelta itself
// if the page has no records yet, the rest by putRecord at the end of
// the overflow buffer — grown once, to the class they all come to — as
// far as deltaCap goes, and the page promoted for any past it.
func (a *AddressSpace) appendTouches(g *touchGroup, ts []Touch, next *[touchBatch]uint8) {
	e, i, n := g.e, g.first, int(g.n)
	var b [8]byte
	if e.inlLen()+e.ovfLen() == 0 {
		// A page with no records takes a touch whatever the cap.
		t := &ts[i]
		binary.LittleEndian.PutUint64(b[:], t.Val)
		a.appendDelta(e, t.Off, b[:])
		i, n = next[i], n-1
	}
	if fit := min(n, (deltaCap-e.inlLen()-e.ovfLen())/touchRecord); fit > 0 {
		dst := a.growOverflow(e, fit*touchRecord)
		for n -= fit; fit > 0; fit-- {
			t := &ts[i]
			binary.LittleEndian.PutUint64(b[:], t.Val)
			putRecord(dst, t.Off, b[:])
			dst = dst[touchRecord:]
			i = next[i]
		}
	}
	if n > 0 {
		page := a.promote(e).data
		for ; n > 0; n-- {
			t := &ts[i]
			binary.LittleEndian.PutUint64(page[t.Off:], t.Val)
			i = next[i]
		}
	}
}

// renderDelta writes lazy delta e's content into buf: the image's page
// with the records replayed. It panics if the image is gone.
func (a *AddressSpace) renderDelta(e *entry, buf *[PageSize]byte) {
	a.base.render(e.page(), buf)
	if h := e.inlHdr(); h != 0 {
		copy(buf[h&(PageSize-1):], e.rec[:h>>12])
	}
	if n := e.ovfLen(); n > 0 {
		applyDelta(buf[:], a.store.overflowBuf(e.ovf)[:n])
	}
}

// promote turns lazy delta e into an ordinary private data frame. The
// store and the space already count the page, so only the slot is new.
func (a *AddressSpace) promote(e *entry) *frame {
	s := a.store
	buf := s.getBuf()
	a.renderDelta(e, buf)
	if e.ovfLen() > 0 {
		s.overflowFree(e.ovf)
	}
	id, f := s.carve()
	f.data = buf
	e.setPage(e.page()) // a frame keeps its page number's high word in rec
	e.setFrame(id)
	return f
}
