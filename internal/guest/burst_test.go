package guest

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"potemkin/internal/flatindex"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/vmm"
)

// TestBurstSizesIndexOnce: a guest's dirty-page bursts size the VM's
// page index and its page table's chunk list before they fault, so a
// fresh clone's start burst makes one chunk list and one index array
// (one-at-a-time growth makes one per doubling: 4, 8, ... slots), or
// none if it indexes no page, an infection burst at most one of each,
// and no index array when the store has a spare of the size it needs.
// The index holds only the pages past the page table's window, and a
// burst reserves it for its touches there (two touches of one page
// count twice), so it can overshoot what the burst turns out to add by
// one doubling, but never what the guest's steady touches reach: after
// a minute of them, every reserved index is no larger than
// one-at-a-time growth leaves it.
func TestBurstSizesIndexOnce(t *testing.T) {
	t.Run("allocations", func(t *testing.T) {
		for _, p := range stockProfiles() {
			h, k := burstHost(p, false)
			a := burstClone(t, h, k, p, 1)
			n, list := burstAllocs(a.Start)
			if want := min(1, indexed(a.VM)); n != want || list != 1 {
				t.Errorf("%s: a fresh clone's start burst indexes %d pages with %d page-index arrays and %d chunk lists, want %d and 1",
					p.Name, indexed(a.VM), n, list, want)
			}
			if p.InfectionBurstPages == 0 {
				continue
			}
			if n, list := burstAllocs(func() { a.ForceInfect(1) }); n > 1 || list > 1 {
				t.Errorf("%s: an infection burst makes %d page-index arrays and %d chunk lists, want at most 1 and 1", p.Name, n, list)
			}
			// Outgrow a's index so that the store holds a spare of its
			// size as well as the one its infection burst outgrew. A clone
			// at a's address draws a's touches, so its bursts need the
			// sizes a's did, and find both.
			wide := make([]uint64, indexSlots(a.VM))
			for i := range wide {
				wide[i] = 16384 + uint64(i) // far past the page-table window
			}
			a.VM.Mem.Reserve(wide)
			b := burstClone(t, h, k, p, 1)
			if n, _ := burstAllocs(b.Start); n != 0 {
				t.Errorf("%s: a start burst makes %d page-index arrays with a spare of its size pooled, want 0", p.Name, n)
			}
			if n, _ := burstAllocs(func() { b.ForceInfect(1) }); n != 0 {
				t.Errorf("%s: an infection burst makes %d page-index arrays with a spare of its size pooled, want 0", p.Name, n)
			}
		}
	})
	t.Run("size", func(t *testing.T) {
		const clones = 256
		for _, p := range stockProfiles() {
			h, k := burstHost(p, true)
			var ins []*Instance
			for i := range clones {
				ins = append(ins, burstClone(t, h, k, p, netsim.Addr(i+1)))
			}
			for _, in := range ins {
				in.Start()
				if p.InfectionBurstPages > 0 {
					in.ForceInfect(1)
				}
				if got, least := indexSlots(in.VM), flatindex.SlotsFor(indexed(in.VM)); got > 2*least {
					t.Fatalf("%s: after its bursts %s indexes %d pages in %d slots, more than a doubling past %d",
						p.Name, in.IP, indexed(in.VM), got, least)
				}
			}
			k.RunFor(time.Minute)
			for _, in := range ins {
				if got, grown := indexSlots(in.VM), flatindex.SlotsFor(indexed(in.VM)); got > grown {
					t.Fatalf("%s: after a minute of touches %s indexes %d pages in %d slots; one-at-a-time growth leaves %d",
						p.Name, in.IP, indexed(in.VM), got, grown)
				}
			}
		}
	})
}

// stockProfiles are the memory workloads of the stock personalities
// (the multi-stage ones share WindowsXP's).
func stockProfiles() []*Profile {
	return []*Profile{WindowsXP(), SQLServer(), LinuxServer()}
}

// burstHost is a host with p's image, the size of the farm's default
// one; without touches, p's guests dirty pages only in their bursts.
func burstHost(p *Profile, touches bool) (*vmm.VMHost, *sim.Kernel) {
	if !touches {
		p.TouchRatePerSec = 0
	}
	k := sim.NewKernel(7)
	h := vmm.NewHost(k, vmm.DefaultHostConfig("burst"))
	h.RegisterImage(p.Name, 32768, 8192, 128, 11)
	return h, k
}

// burstClone flash-clones a VM for a guest of p at ip and returns the
// guest, not started.
func burstClone(t *testing.T, h *vmm.VMHost, k *sim.Kernel, p *Profile, ip netsim.Addr) *Instance {
	t.Helper()
	vm, err := h.FlashClone(p.Name, ip, nil)
	if err != nil {
		t.Fatal(err)
	}
	k.RunFor(time.Second) // the clone comes up
	return New(k, vm, p, func(*netsim.Packet) {}, nil, Hooks{})
}

// indexSlots is the length of vm's page index: what its faults have
// grown it to.
func indexSlots(vm *vmm.VM) int {
	return reflect.ValueOf(vm.Mem).Elem().FieldByName("index").FieldByName("slots").Len()
}

// indexed is how many of vm's pages its page index holds: the ones the
// window does not.
func indexed(vm *vmm.VM) int {
	return int(reflect.ValueOf(vm.Mem).Elem().FieldByName("index").FieldByName("n").Int())
}

// burstAllocs counts the page-index arrays and page-table chunk lists f
// allocates, from a heap profile that records every allocation.
func burstAllocs(f func()) (index, chunkList int) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	index0, list0 := burstAllocsSoFar()
	f()
	index1, list1 := burstAllocsSoFar()
	return index1 - index0, list1 - list0
}

func burstAllocsSoFar() (index, chunkList int) {
	// A record is published by the second collection after its
	// allocation.
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	for n, ok := runtime.MemProfile(nil, true); !ok; {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
		recs = recs[:min(n, len(recs))]
	}
	for _, r := range recs {
		switch {
		case growsPageIndex(r.Stack()):
			index += int(r.AllocObjects)
		case growsChunkList(r.Stack()):
			chunkList += int(r.AllocObjects)
		}
	}
	return index, chunkList
}

// growsPageIndex reports whether an allocation's stack is a page index
// growing: in mem's growIndex, or in flatindex called from mem.
func growsPageIndex(stack []uintptr) bool {
	frames := runtime.CallersFrames(stack)
	inIndex := false
	for {
		fr, more := frames.Next()
		switch fn := fr.Function; {
		case strings.HasSuffix(fn, "internal/mem.(*AddressSpace).growIndex"):
			return true
		case strings.Contains(fn, "internal/flatindex."):
			inIndex = true
		case inIndex && strings.Contains(fn, "internal/mem."):
			return true
		}
		if !more {
			return false
		}
	}
}

// growsChunkList reports whether an allocation's stack is a page
// table's chunk list growing: made in mem's add (an append) or Reserve
// itself. Chunks are made in newChunk and index arrays in growIndex.
func growsChunkList(stack []uintptr) bool {
	fr, _ := runtime.CallersFrames(stack).Next()
	return strings.HasSuffix(fr.Function, "internal/mem.(*AddressSpace).add") ||
		strings.HasSuffix(fr.Function, "internal/mem.(*AddressSpace).Reserve")
}
