package mem

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"potemkin/internal/flatindex"
)

// TestReserveMatchesUnreserved runs twin stores through the same clones,
// writes, reads, share passes and releases; only the first twin's clones
// reserve index room now and then, and so take and leave the store's
// spare index arrays on a different schedule. Reserving changes how
// large an index is, nothing the space reads back: after every step the
// twins' clones have faulted the same pages in the same order, with the
// same counts, and the stores count the same; every 50 steps, and at
// the end, every page of every clone reads the same. Half the pages lie
// past the window, where the index holds them.
func TestReserveMatchesUnreserved(t *testing.T) {
	const pages, resident = 2 * windowPages, windowPages + 32
	for seed, share := range []bool{false, true} {
		var stores [2]*Store
		var imgs [2]*Image
		var live [2][]*AddressSpace
		for i := range stores {
			stores[i] = NewStore()
			stores[i].ShareContent = share
			imgs[i] = BuildImage(stores[i], pages, resident, 500)
		}
		rng := rand.New(rand.NewPCG(uint64(seed), 9))
		larger := 0
		const steps = 3000
		for step := 0; step < steps; step++ {
			n := len(live[0])
			var desc string
			switch op := rng.IntN(100); {
			case n == 0 || op < 3 && n < 12:
				desc = "clone"
				for i := range live {
					live[i] = append(live[i], imgs[i].NewClone())
				}
			case op < 80:
				c, vpn := rng.IntN(n), uint64(rng.IntN(pages))
				b := make([]byte, []int{1, 8, 8, 40, 300}[rng.IntN(5)])
				for j := range b {
					b[j] = byte(rng.IntN(3)) // now and then all zero: the zero frame
				}
				off := rng.IntN(PageSize - len(b) + 1)
				desc = fmt.Sprintf("write clone %d page %d [%d,%d)", c, vpn, off, off+len(b))
				if f0, f1 := live[0][c].Write(vpn, off, b), live[1][c].Write(vpn, off, b); f0 != f1 {
					t.Fatalf("share=%v step %d %s: faulted %v, twin %v", share, step, desc, f0, f1)
				}
			case op < 85:
				c, vpn := rng.IntN(n), uint64(rng.IntN(pages))
				desc = fmt.Sprintf("read clone %d page %d", c, vpn)
				if !bytes.Equal(live[0][c].Read(vpn, 0, PageSize), live[1][c].Read(vpn, 0, PageSize)) {
					t.Fatalf("share=%v step %d %s: twins read differently", share, step, desc)
				}
			case op < 93:
				c := rng.IntN(n)
				room := rng.IntN(200)
				if rng.IntN(20) == 0 {
					room = 4000 // half wide, past indexMaxRecycle: an array no spare holds
				}
				vpns := make([]uint64, room)
				for j := range vpns {
					vpns[j] = uint64(rng.IntN(pages))
				}
				desc = fmt.Sprintf("reserve clone %d for %d touches", c, room)
				live[0][c].Reserve(vpns)
			case op < 95:
				desc = "share pass"
				if r0, r1 := SharePass(stores[0], live[0]), SharePass(stores[1], live[1]); r0 != r1 {
					t.Fatalf("share=%v step %d share pass: %+v, twin %+v", share, step, r0, r1)
				}
			default:
				c := rng.IntN(n)
				desc = fmt.Sprintf("release clone %d", c)
				for i := range live {
					live[i][c].Release()
					live[i] = slices.Delete(live[i], c, c+1)
				}
			}
			at := fmt.Sprintf("share=%v step %d (%s)", share, step, desc)
			for c := range live[0] {
				a, b := live[0][c], live[1][c]
				sameSpace(t, at, a, b, step%50 == 0 || step == steps-1, pages)
				if a.index.Slots() > b.index.Slots() {
					larger++
				}
			}
			if stores[0].Stats() != stores[1].Stats() || stores[0].FrameCount() != stores[1].FrameCount() {
				t.Fatalf("%s: store %+v (%d frames), twin %+v (%d frames)", at,
					stores[0].Stats(), stores[0].FrameCount(), stores[1].Stats(), stores[1].FrameCount())
			}
			checkSpares(t, at, stores[0])
		}
		for i, s := range stores {
			if err := s.CheckRefs(ExternalRefs(live[i], imgs[i:i+1])); err != nil {
				t.Fatalf("share=%v twin %d: %v", share, i, err)
			}
		}
		if larger == 0 {
			t.Errorf("share=%v: no reserved index was ever larger than its twin's", share)
		}
	}
}

// sameSpace fails unless a and b own the same pages, faulted in the
// same order, with the same counts, and, if content is set, every page
// reads the same.
func sameSpace(t *testing.T, at string, a, b *AddressSpace, content bool, pages uint64) {
	t.Helper()
	for vpn := uint64(0); content && vpn < pages; vpn++ {
		if !bytes.Equal(a.PeekPage(vpn), b.PeekPage(vpn)) {
			t.Fatalf("%s: page %d differs from the twin's", at, vpn)
		}
	}
	var order [2][]uint64
	for i, s := range []*AddressSpace{a, b} {
		s.EachOwnedPage(func(vpn uint64) { order[i] = append(order[i], vpn) })
	}
	if !slices.Equal(order[0], order[1]) {
		t.Fatalf("%s: owned pages in order %v, twin %v", at, order[0], order[1])
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("%s: space stats %+v, twin %+v", at, a.Stats(), b.Stats())
	}
	if a.OwnedPages() != b.OwnedPages() || a.PrivatePages() != b.PrivatePages() || a.ResidentPages() != b.ResidentPages() {
		t.Fatalf("%s: owned/private/resident %d/%d/%d, twin %d/%d/%d", at,
			a.OwnedPages(), a.PrivatePages(), a.ResidentPages(), b.OwnedPages(), b.PrivatePages(), b.ResidentPages())
	}
}

// checkSpares fails unless each of the store's spare index arrays is
// the length its class names and all zero.
func checkSpares(t *testing.T, at string, s *Store) {
	t.Helper()
	for c, spare := range s.indexSpare {
		if spare == nil {
			continue
		}
		if len(spare) != 1<<c {
			t.Fatalf("%s: a spare of %d slots in the class of %d", at, len(spare), 1<<c)
		}
		if i := slices.IndexFunc(spare, func(h uint32) bool { return h != 0 }); i >= 0 {
			t.Fatalf("%s: the %d-slot spare holds %d at slot %d", at, len(spare), spare[i], i)
		}
	}
}

// TestIndexSpareZeroed: an index that grows leaves the array it outgrew,
// cleared, as the store's spare of its size, and the next index to grow
// to that size starts from it, empty. No spare is larger than
// indexMaxRecycle. Every page is past the window, so the index holds
// them all.
func TestIndexSpareZeroed(t *testing.T) {
	s := NewStore()
	img := BuildImage(s, 8192, 4096, 3)
	a := img.NewClone()
	for vpn := uint64(windowPages); vpn < windowPages+49; vpn++ { // 48 pages fill 64 slots
		a.Write(vpn, 0, []byte{1})
	}
	spare := s.indexSpare[6]
	if len(spare) != 64 || a.index.Slots() != 128 {
		t.Fatalf("after growing to %d slots the store's 64-slot spare has %d", a.index.Slots(), len(spare))
	}
	checkSpares(t, "after growth", s)

	b := img.NewClone()
	b.Reserve(pageRun(windowPages+100, 48))
	if b.index.Slots() != 64 || s.indexSpare[6] != nil {
		t.Fatalf("a reserve for 48 pages made %d slots and left the spare %v", b.index.Slots(), s.indexSpare[6] != nil)
	}
	for vpn := uint64(windowPages); vpn < windowPages+49; vpn++ {
		if b.IsDelta(vpn) {
			t.Fatalf("the reserved index finds page %d, which only the spare's last tenant owned", vpn)
		}
	}
	for vpn := uint64(windowPages + 100); vpn < windowPages+148; vpn++ {
		if !b.Write(vpn, 8, []byte{byte(vpn)}) {
			t.Fatalf("first write to page %d did not fault", vpn)
		}
	}
	if b.index.Slots() != 64 || b.OwnedPages() != 48 {
		t.Fatalf("48 faults into a reserved 64-slot index left %d slots, %d pages", b.index.Slots(), b.OwnedPages())
	}
	for vpn := uint64(windowPages + 100); vpn < windowPages+148; vpn++ {
		if got := b.PeekPage(vpn)[8]; got != byte(vpn) || !b.IsDelta(vpn) {
			t.Fatalf("page %d reads %d through the recycled index", vpn, got)
		}
	}

	// Past the cap: the 2048-slot array a outgrows is kept, the 4096-slot
	// one after it is not.
	a.Reserve(pageRun(windowPages, 1400))
	a.Reserve(pageRun(windowPages, 3000))
	a.Reserve(pageRun(windowPages, 7000))
	if a.index.Slots() != 16384 || len(s.indexSpare[11]) != indexMaxRecycle {
		t.Fatalf("%d slots after reserving past the cap, a %d-slot spare at the cap", a.index.Slots(), len(s.indexSpare[11]))
	}
	checkSpares(t, "past the cap", s)
}

// pageRun is the n page numbers from first on.
func pageRun(first uint64, n int) []uint64 {
	vpns := make([]uint64, n)
	for i := range vpns {
		vpns[i] = first + uint64(i)
	}
	return vpns
}

// TestReserveCountsLateWindowPages: window pages a burst faults past log
// position 253 go to the index, so Reserve sizes the index for them too,
// and the burst grows it no further. Here the index is one entry short
// of full, and the burst's last two pages land late: a reserve that
// counted one fewer would leave the second to grow the index in a fault.
func TestReserveCountsLateWindowPages(t *testing.T) {
	s := NewStore()
	img := BuildImage(s, 1024, 512, 42)
	a := img.NewClone()
	const wide, narrow = 191, 57 // positions 0–190 indexed, 191–247 in the window
	for vpn := uint64(windowPages); vpn < windowPages+wide; vpn++ {
		a.Write(vpn, 0, []byte{1})
	}
	for vpn := uint64(0); vpn < narrow; vpn++ {
		a.Write(vpn, 0, []byte{1})
	}
	full := a.index.Slots()
	if a.index.Len() != wide || flatindex.SlotsFor(wide+1) != full || flatindex.SlotsFor(wide+2) == full {
		t.Fatalf("%d pages indexed in %d slots, want %d one short of full", a.index.Len(), full, wide)
	}
	burst := pageRun(narrow, 8) // positions 248–255: 254 and 255 are late
	a.Reserve(append(burst, burst...))
	reserved := a.index.Slots()
	if reserved <= full {
		t.Fatalf("a reserve for 8 window pages, 2 of them late, left the full index at %d slots", reserved)
	}
	for _, vpn := range burst {
		a.Write(vpn, 0, []byte{1})
	}
	if a.index.Slots() != reserved || a.index.Len() != wide+2 {
		t.Errorf("the burst grew the reserved index from %d to %d slots (%d pages indexed)",
			reserved, a.index.Slots(), a.index.Len())
	}
	for _, vpn := range burst[6:] {
		if a.window[vpn] != windowIndexed {
			t.Errorf("page %d at a late position: window byte %d", vpn, a.window[vpn])
		}
	}
}
