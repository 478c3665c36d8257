package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// touchTwin is one side of TestWriteTouchesMatchesWrite: a store of its
// own, a clone of an image on it, and a scratch space beside the clone.
type touchTwin struct {
	s       *Store
	img     *Image
	clone   *AddressSpace
	scratch *AddressSpace
	spaces  [2]*AddressSpace
}

const (
	touchPages    = windowPages + 64 // the clone's image backs them all
	touchScratchN = 48               // the scratch space's pages
	touchHot      = 9                // the page a burst repeats past deltaCap
)

func newTouchTwin(share bool) *touchTwin {
	s := NewStore()
	s.ShareContent = share
	img := BuildImage(s, touchPages+8, touchPages, 0x70c)
	w := &touchTwin{s: s, img: img, clone: img.NewClone(), scratch: NewAddressSpace(s, touchScratchN)}
	w.spaces = [2]*AddressSpace{w.clone, w.scratch}
	return w
}

// carved is how many overflow buffers the store's arenas have carved:
// the most they have held at once, class by class.
func (w *touchTwin) carved() int {
	n := 0
	for c := range w.s.overflow {
		n += int(w.s.overflow[c].carved)
	}
	return n
}

// writeOne writes ts one at a time through Write, reserving the page
// table for each batch's pages first as WriteTouches does, and reports
// how many faulted.
func writeOne(a *AddressSpace, ts []Touch) int {
	faults := 0
	for i, t := range ts {
		if i%touchBatch == 0 {
			var vpns []uint64
			for _, u := range ts[i:min(i+touchBatch, len(ts))] {
				vpns = append(vpns, u.VPN)
			}
			a.Reserve(vpns)
		}
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], t.Val)
		if a.Write(t.VPN, t.Off, b[:]) {
			faults++
		}
	}
	return faults
}

// touchesOn draws n touches of pages picked by page.
func touchesOn(rng *rand.Rand, n int, page func() uint64) []Touch {
	ts := make([]Touch, n)
	for i := range ts {
		ts[i] = Touch{VPN: page(), Off: rng.Intn(PageSize - 8), Val: rng.Uint64()}
		if rng.Intn(8) == 0 {
			ts[i].Val = 0 // onto a scratch space's unmapped page, the zero frame
		}
	}
	return ts
}

// sameTwins fails unless the twins read and count alike: every page
// byte-equal through PeekPage, equal space and store statistics, the
// same owned pages in the same order, and references that add up.
func sameTwins(t *testing.T, at string, one, batch *touchTwin) {
	t.Helper()
	for k, a := range one.spaces {
		b := batch.spaces[k]
		for vpn := uint64(0); vpn < a.NumPages(); vpn++ {
			if !bytes.Equal(a.PeekPage(vpn), b.PeekPage(vpn)) {
				t.Fatalf("%s: space %d page %d differs", at, k, vpn)
			}
		}
		if a.Stats() != b.Stats() {
			t.Fatalf("%s: space %d stats %+v, one at a time %+v", at, k, b.Stats(), a.Stats())
		}
		var pa, pb []uint64
		a.EachOwnedPage(func(vpn uint64) { pa = append(pa, vpn) })
		b.EachOwnedPage(func(vpn uint64) { pb = append(pb, vpn) })
		if !reflect.DeepEqual(pa, pb) {
			t.Fatalf("%s: space %d owns %v, one at a time %v", at, k, pb, pa)
		}
		if a.window != b.window || a.index.Len() != b.index.Len() || a.index.Slots() != b.index.Slots() {
			t.Fatalf("%s: space %d page tables differ", at, k)
		}
	}
	if one.s.Stats() != batch.s.Stats() {
		t.Fatalf("%s: store stats %+v, one at a time %+v", at, batch.s.Stats(), one.s.Stats())
	}
	for _, w := range []*touchTwin{one, batch} {
		if err := w.s.CheckRefs(ExternalRefs(w.spaces[:], []*Image{w.img})); err != nil {
			t.Fatalf("%s: %v", at, err)
		}
	}
}

// TestWriteTouchesMatchesWrite holds WriteTouches to Write one touch at
// a time: twins on stores of their own take the same bursts, one side
// through Write and the other through WriteTouches, and must end every
// burst alike (sameTwins). The bursts cover window and wide pages, a
// page touched past deltaCap inside one burst, pages the clone already
// owns as an inline delta, a spilled one, one whose first record is too
// long to sit inline and a promoted frame, bursts longer than a batch,
// and a scratch space's zero-fill pages, with and without content
// sharing. The batched side must take no more overflow buffers.
func TestWriteTouchesMatchesWrite(t *testing.T) {
	for _, share := range []bool{false, true} {
		t.Run(fmt.Sprintf("share=%v", share), func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			one, batch := newTouchTwin(share), newTouchTwin(share)
			both := func(f func(w *touchTwin)) { f(one); f(batch) }
			burst := func(at string, a func(w *touchTwin) *AddressSpace, ts []Touch) {
				t.Helper()
				fo, fb := writeOne(a(one), ts), a(batch).WriteTouches(ts)
				if fo != fb {
					t.Fatalf("%s: WriteTouches reports %d faults, one at a time %d", at, fb, fo)
				}
				sameTwins(t, at, one, batch)
			}
			clone := func(w *touchTwin) *AddressSpace { return w.clone }
			scratch := func(w *touchTwin) *AddressSpace { return w.scratch }

			// The clone's pages in every state a burst can meet: an inline
			// touch (page 1), a touch and a spilled one (2), a first record
			// too long to sit inline (3, and wide page windowPages+3), and
			// a promoted frame (4).
			both(func(w *touchTwin) {
				a := w.clone
				a.Write(1, 10, []byte{1, 2, 3, 4, 5, 6, 7, 8})
				a.Write(2, 20, []byte{1, 2, 3, 4, 5, 6, 7, 8})
				a.Write(2, 30, []byte{8, 7, 6, 5, 4, 3, 2, 1})
				a.Write(3, 40, bytes.Repeat([]byte{0x33}, deltaInline+1))
				a.Write(windowPages+3, 40, bytes.Repeat([]byte{0x3A}, 40))
				a.Write(4, 50, []byte{4})
				a.Read(4, 0, 1)
			})
			sameTwins(t, "setup", one, batch)
			if !one.clone.IsDelta(1) || one.clone.IsDelta(4) || ownedEntry(t, one.clone, 3).inlLen() != 0 {
				t.Fatal("setup: pages not in the states the bursts are meant to meet")
			}

			// The first burst touches a fresh page past the cap and each
			// prepared page, among window and wide pages.
			hot := touchesOn(rng, deltaCap/touchRecord+9, func() uint64 { return touchHot })
			mixed := touchesOn(rng, 40, func() uint64 {
				if rng.Intn(4) == 0 {
					return windowPages + uint64(rng.Intn(8))
				}
				return uint64(1 + rng.Intn(5))
			})
			ts := append(hot[:20:20], mixed...)
			ts = append(ts, hot[20:]...)
			burst("a page past the cap", clone, ts)
			if one.clone.IsDelta(touchHot) || batch.clone.IsDelta(touchHot) {
				t.Fatal("the hot page is still a lazy delta past the cap")
			}
			// A page touched 20 times in a burst takes one buffer, not one
			// per class it passes through.
			carved := batch.carved()
			fresh := touchesOn(rng, 20, func() uint64 { return windowPages + 40 })
			burst("twenty touches of a fresh wide page", clone, fresh)
			if e := ownedEntry(t, batch.clone, windowPages+40); batch.carved() > carved+1 || e.ovfLen() != 19*touchRecord {
				t.Fatalf("twenty touches: %d bytes of overflow, %d buffers carved for them",
					e.ovfLen(), batch.carved()-carved)
			}

			for round := 0; round < 60; round++ {
				n := 1 + rng.Intn(2*touchBatch)
				ts := touchesOn(rng, n, func() uint64 {
					switch rng.Intn(10) {
					case 0:
						return windowPages + uint64(rng.Intn(touchPages-windowPages))
					case 1:
						return touchHot
					default:
						return uint64(rng.Intn(24))
					}
				})
				burst(fmt.Sprintf("round %d: %d touches", round, n), clone, ts)
				st := touchesOn(rng, 1+rng.Intn(64), func() uint64 { return uint64(rng.Intn(touchScratchN)) })
				burst(fmt.Sprintf("round %d: scratch", round), scratch, st)
				switch round % 10 {
				case 4: // promote some pages, as a checkpoint's reads would
					both(func(w *touchTwin) {
						for vpn := uint64(0); vpn < 24; vpn += 3 {
							w.clone.Read(vpn, 0, 8)
						}
					})
				case 9: // a fresh tenant from the recycled clone
					both(func(w *touchTwin) {
						w.clone.Release()
						w.clone = w.img.NewClone()
						w.spaces[0] = w.clone
					})
				}
				sameTwins(t, fmt.Sprintf("round %d", round), one, batch)
			}
			if batch.carved() >= one.carved() {
				t.Errorf("the batched side carved %d overflow buffers, one at a time %d: it should carve fewer",
					batch.carved(), one.carved())
			}
		})
	}
}
