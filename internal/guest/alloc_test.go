package guest

import (
	"testing"
	"time"

	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/vmm"
)

// TestCloneBurstDestroyAllocs is the steady-state allocation floor
// under the farm's churn: on a warmed host, a batch of flash clones
// whose guests run their start-up dirty-page burst and are then
// destroyed allocates exactly what the same batch costs when the guests
// touch nothing. The burst — CoW faults, page-table entries, second and
// third writes to a page — therefore costs no page buffer, no page
// table and no delta storage. The batch dirties more pages than the
// store's buffer pool holds, so the floor cannot be the pool's doing.
//
// The comparison allows a quarter of an object per clone: under -race
// (how CI runs the allocation floors) the runtime's own bookkeeping
// moves either measurement by two or three objects, while anything the
// burst allocates costs at least one per clone.
func TestCloneBurstDestroyAllocs(t *testing.T) {
	const batch = 32 // x 48 burst pages, against a pool of 1024 buffers
	perCycle := func(burst int) float64 {
		k := sim.NewKernel(7)
		h := vmm.NewHost(k, vmm.DefaultHostConfig("floor"))
		p := WindowsXP()
		p.InitialBurstPages = burst
		p.TouchRatePerSec = 0 // the burst alone; no timers outliving the VM
		h.RegisterImage(p.Name, 8192, 2048, 128, 11)
		send := func(*netsim.Packet) {}
		start := func(vm *vmm.VM) { New(k, vm, p, send, nil, Hooks{}).Start() }
		cycle := func() {
			for i := 0; i < batch; i++ {
				if _, err := h.FlashClone(p.Name, netsim.Addr(0x0a000001+i), start); err != nil {
					t.Fatal(err)
				}
			}
			k.RunFor(5 * time.Second) // clones complete, guests start
			if got := h.Stats().CowFaults; burst > 0 && got == 0 {
				t.Fatal("guests started but nothing faulted")
			}
			h.DestroyAll()
		}
		for i := 0; i < 3; i++ {
			cycle() // warm the slab, the pools and the kernel's free lists
		}
		return testing.AllocsPerRun(20, cycle)
	}
	idle, burst := perCycle(0), perCycle(WindowsXP().InitialBurstPages)
	if burst > idle+batch/4 {
		t.Errorf("a batch of %d clones allocates %.0f objects with the dirty-page burst and %.0f without: the burst must cost none",
			batch, burst, idle)
	}
}
