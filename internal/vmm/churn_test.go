package vmm

import (
	"testing"

	"potemkin/internal/mem"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
)

// TestChurnReusesFrameSlots churns VMs through FlashClone/Destroy and
// checks the slab frame store against the workload: slots freed by one
// generation of VMs are reused by the next (the store does not grow
// without bound), the refcount census stays exact, and a FrameID that
// survived its frame panics instead of aliasing the new tenant.
func TestChurnReusesFrameSlots(t *testing.T) {
	k := sim.NewKernel(1)
	h := newTestHost(t, k)
	s := h.Store()

	var peakFrames int
	for round := 0; round < 20; round++ {
		var vms []*VM
		for i := 0; i < 8; i++ {
			vm, err := h.FlashClone("winxp", netsim.Addr(uint32(round*8+i+1)), nil)
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			vms = append(vms, vm)
		}
		k.Run()
		for _, vm := range vms {
			// Diverge some pages so real frames churn, not just PTEs.
			for p := uint64(0); p < 32; p++ {
				vm.Mem.Write(p, int(p), []byte{byte(round), byte(p)})
			}
		}
		if round == 0 {
			peakFrames = frameCount(s)
		}
		if err := h.CheckMemoryInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for _, vm := range vms {
			h.Destroy(vm.ID)
		}
		if err := h.CheckMemoryInvariants(); err != nil {
			t.Fatalf("round %d after destroy: %v", round, err)
		}
	}
	// Steady-state churn must not grow the frame table: every round
	// frees what it allocated, so the slab's free list absorbs the next
	// round. Allow slack for accounting frames the host keeps live.
	if got := frameCount(s); got > peakFrames+8 {
		t.Errorf("frame count grew across churn: %d live after, %d at first round", got, peakFrames)
	}

	// A stale FrameID from a destroyed VM's era must panic once its slot
	// is reoccupied, not silently read the new tenant.
	page := make([]byte, mem.PageSize)
	page[0] = 1
	stale := s.AllocData(page)
	s.DecRef(stale)
	vm, err := h.FlashClone("winxp", netsim.Addr(0xFFFF), nil)
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	vm.Mem.Write(0, 0, []byte{42}) // reoccupies the freed slot
	defer func() {
		if recover() == nil {
			t.Error("stale FrameID use did not panic after slot reuse")
		}
	}()
	s.View(stale)
}
