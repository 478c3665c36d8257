package vmm

import (
	"testing"
	"time"

	"potemkin/internal/mem"
	"potemkin/internal/sim"
	"potemkin/internal/trace"
)

func newTestHost(t *testing.T, k *sim.Kernel) *VMHost {
	t.Helper()
	cfg := DefaultHostConfig("test")
	cfg.MemoryBytes = 1 << 30
	h := NewHost(k, cfg)
	// 32 MiB image: 8192 pages, 2048 resident.
	h.RegisterImage("winxp", 8192, 2048, 512, 42)
	return h
}

func TestFlashCloneLifecycle(t *testing.T) {
	k := sim.NewKernel(1)
	h := newTestHost(t, k)
	var readyVM *VM
	vm, err := h.FlashClone("winxp", 0x0a000001, func(v *VM) { readyVM = v })
	if err != nil {
		t.Fatal(err)
	}
	if vm.State != StateCloning {
		t.Errorf("state = %v, want cloning", vm.State)
	}
	k.Run()
	if readyVM != vm {
		t.Fatal("ready callback not invoked with the VM")
	}
	if vm.State != StateRunning {
		t.Errorf("state = %v, want running", vm.State)
	}
	// Clone latency budget: roughly 0.4-0.6 s of modeled time.
	lat := vm.ReadyAt.Sub(vm.CreatedAt)
	if lat < 300*time.Millisecond || lat > 700*time.Millisecond {
		t.Errorf("clone latency = %v, want ~0.5s", lat)
	}
}

func TestFlashCloneSharesMemory(t *testing.T) {
	k := sim.NewKernel(1)
	h := newTestHost(t, k)
	before := frameCount(h.Store())
	var vms []*VM
	for i := 0; i < 50; i++ {
		vm, err := h.FlashClone("winxp", 0x0a000001, nil)
		if err != nil {
			t.Fatal(err)
		}
		vms = append(vms, vm)
	}
	if got := frameCount(h.Store()); got != before {
		t.Errorf("cloning 50 VMs allocated %d frames", got-before)
	}
	if vms[0].Mem.PrivatePages() != 0 {
		t.Errorf("fresh clone has %d private pages", vms[0].Mem.PrivatePages())
	}
}

func TestFullBootAllocatesPrivate(t *testing.T) {
	k := sim.NewKernel(1)
	h := newTestHost(t, k)
	before := frameCount(h.Store())
	vm, err := h.FullBoot("winxp", 0x0a000001, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := frameCount(h.Store()) - before; got != 2048 {
		t.Errorf("full boot allocated %d frames, want 2048", got)
	}
	if vm.Mem.PrivatePages() != 2048 {
		t.Errorf("private pages = %d", vm.Mem.PrivatePages())
	}
	k.Run()
	if vm.State != StateRunning {
		t.Errorf("state = %v", vm.State)
	}
	if lat := vm.ReadyAt.Sub(vm.CreatedAt); lat < 10*time.Second {
		t.Errorf("full boot latency = %v, want tens of seconds", lat)
	}
}

func TestFullBootContentMatchesClone(t *testing.T) {
	k := sim.NewKernel(1)
	h := newTestHost(t, k)
	cl, err := h.FlashClone("winxp", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := h.FullBoot("winxp", 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, vpn := range []uint64{0, 1, 1000, 2047} {
		a := cl.Mem.Read(vpn, 0, 64)
		b := fb.Mem.Read(vpn, 0, 64)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("page %d differs between clone and full boot", vpn)
			}
		}
	}
}

func TestCloneWriteIsolation(t *testing.T) {
	k := sim.NewKernel(1)
	h := newTestHost(t, k)
	a, _ := h.FlashClone("winxp", 1, nil)
	b, _ := h.FlashClone("winxp", 2, nil)
	orig := b.Mem.Read(5, 0, 4)
	a.WriteMemory(5, 0, []byte{0xFF, 0xFF, 0xFF, 0xFF})
	after := b.Mem.Read(5, 0, 4)
	for i := range orig {
		if orig[i] != after[i] {
			t.Fatal("write in one clone visible in another")
		}
	}
	if a.Mem.PrivatePages() != 1 {
		t.Errorf("PrivatePages = %d", a.Mem.PrivatePages())
	}
	if h.Stats().CowFaults != 1 {
		t.Errorf("CowFaults = %d", h.Stats().CowFaults)
	}
}

func TestAdmissionMemoryLimit(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := DefaultHostConfig("small")
	cfg.MemoryBytes = 64 << 20 // 64 MiB
	h := NewHost(k, cfg)
	h.RegisterImage("img", 8192, 2048, 512, 1) // 8 MiB resident

	// Image itself consumes 2048 frames = 8 MiB. Each clone adds ~1 MiB
	// overhead, so roughly (64-8)/1 = ~56 clones fit.
	n := 0
	for {
		_, err := h.FlashClone("img", 1, nil)
		if err != nil {
			if err != ErrNoMemory {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
		n++
		if n > 1000 {
			t.Fatal("admission never rejected")
		}
	}
	if n < 40 || n > 60 {
		t.Errorf("admitted %d clones, want ~55", n)
	}
	if h.Stats().CloneRejects == 0 {
		t.Error("no rejects counted")
	}
}

func TestCloneUnknownImage(t *testing.T) {
	k := sim.NewKernel(1)
	h := newTestHost(t, k)
	if _, err := h.FlashClone("nope", 1, nil); err == nil {
		t.Error("unknown image accepted")
	}
}

func TestDestroyReclaimsMemory(t *testing.T) {
	k := sim.NewKernel(1)
	h := newTestHost(t, k)
	vm, _ := h.FlashClone("winxp", 1, nil)
	k.Run()
	for i := uint64(0); i < 100; i++ {
		vm.WriteMemory(i, 0, []byte{1})
	}
	used := h.MemoryInUse()
	h.Destroy(vm.ID)
	if h.NumVMs() != 0 {
		t.Error("VM still listed")
	}
	reclaimed := used - h.MemoryInUse()
	if want := uint64(100*mem.PageSize) + PerVMOverheadBytes; reclaimed != want {
		t.Errorf("reclaimed %d, want %d", reclaimed, want)
	}
	if err := h.CheckMemoryInvariants(); err != nil {
		t.Error(err)
	}
}

func TestDestroyMidCloneCancelsReady(t *testing.T) {
	k := sim.NewKernel(1)
	h := newTestHost(t, k)
	called := false
	vm, _ := h.FlashClone("winxp", 1, func(*VM) { called = true })
	h.Destroy(vm.ID)
	k.Run()
	if called {
		t.Error("ready fired for destroyed VM")
	}
	if err := h.CheckMemoryInvariants(); err != nil {
		t.Error(err)
	}
}

// TestParkedVMDropsItsMemory destroys a traced VM once it is up and
// another mid-clone: each is parked on the host's free list, the second
// once its completion event has fired, without its address space or
// span, which belong to its last tenant.
func TestParkedVMDropsItsMemory(t *testing.T) {
	k := sim.NewKernel(1)
	h := newTestHost(t, k)
	h.SetTracer(trace.New(func(trace.Record) {}, 0))
	up, _ := h.FlashClone("winxp", 1, nil)
	k.Run()
	mid, _ := h.FlashClone("winxp", 2, nil)
	if up.span == nil || mid.span == nil || up.Mem == nil {
		t.Fatal("setup: a traced clone has no span or no memory")
	}
	h.Destroy(up.ID)
	h.Destroy(mid.ID)
	if h.vmFree.Len() != 1 || mid.Mem == nil {
		t.Fatal("the VM destroyed mid-clone was parked before its completion event fired")
	}
	k.Run()
	if h.vmFree.Len() != 2 {
		t.Fatalf("%d VMs parked, want both", h.vmFree.Len())
	}
	for _, vm := range []*VM{up, mid} {
		if vm.Mem != nil || vm.span != nil {
			t.Errorf("parked VM %d still holds its address space or its span", vm.ID)
		}
	}
}

func TestDestroyUnknownIsNoop(t *testing.T) {
	k := sim.NewKernel(1)
	h := newTestHost(t, k)
	h.Destroy(9999) // must not panic
}

func TestChurnInvariant(t *testing.T) {
	k := sim.NewKernel(3)
	h := newTestHost(t, k)
	r := k.Stream("churn")
	var live []*VM
	for i := 0; i < 500; i++ {
		switch {
		case len(live) == 0 || r.Bool(0.6):
			vm, err := h.FlashClone("winxp", 1, nil)
			if err == nil {
				live = append(live, vm)
			}
		default:
			i := r.Intn(len(live))
			vm := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			// Dirty some pages before death.
			for j := 0; j < r.Intn(20); j++ {
				vm.WriteMemory(uint64(r.Intn(2048)), 0, []byte{byte(j)})
			}
			h.Destroy(vm.ID)
		}
		k.RunFor(10 * time.Millisecond)
	}
	if err := h.CheckMemoryInvariants(); err != nil {
		t.Fatal(err)
	}
	h.DestroyAll()
	if err := h.CheckMemoryInvariants(); err != nil {
		t.Fatal(err)
	}
	// Only image frames + zero frame remain.
	if got := frameCount(h.Store()); got != 2048+1 {
		t.Errorf("FrameCount = %d, want 2049", got)
	}
}

func TestStepLatencyHistograms(t *testing.T) {
	k := sim.NewKernel(1)
	h := newTestHost(t, k)
	for i := 0; i < 20; i++ {
		if _, err := h.FlashClone("winxp", 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	for step := CloneStep(0); step < NumCloneSteps; step++ {
		if h.StepLatency[step].Count() != 20 {
			t.Errorf("step %v count = %d", step, h.StepLatency[step].Count())
		}
	}
	if h.CloneLatency.Count() != 20 {
		t.Errorf("CloneLatency count = %d", h.CloneLatency.Count())
	}
	// Device+network steps dominate the memory-map step, as in the paper.
	if h.StepLatency[StepDeviceClone].Mean() < h.StepLatency[StepMemMap].Mean() {
		t.Error("device clone should dominate memory map clone")
	}
}

func TestPeakStats(t *testing.T) {
	k := sim.NewKernel(1)
	h := newTestHost(t, k)
	a, _ := h.FlashClone("winxp", 1, nil)
	b, _ := h.FlashClone("winxp", 2, nil)
	h.Destroy(a.ID)
	h.Destroy(b.ID)
	if h.Stats().PeakVMs != 2 {
		t.Errorf("PeakVMs = %d", h.Stats().PeakVMs)
	}
	if h.Stats().Destroys != 2 || h.Stats().Clones != 2 {
		t.Errorf("stats = %+v", h.Stats())
	}
}

// frameCount is the number of live frames in s, the zero frame included.
func frameCount(s *mem.Store) int { return int(s.ModeledBytes() / mem.PageSize) }
