package vmm

import (
	"bytes"
	"testing"

	"potemkin/internal/netsim"
	"potemkin/internal/sim"
)

// bootAndConfigure full-boots a reference VM and "configures" it with
// a recognizable memory write.
func bootAndConfigure(t *testing.T, k *sim.Kernel, h *VMHost) *VM {
	t.Helper()
	vm, err := h.FullBoot("winxp", 0x0a000001, nil)
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	vm.WriteMemory(7, 0, []byte("configured service state"))
	return vm
}

func TestSnapshotVMAndCloneFleet(t *testing.T) {
	k := sim.NewKernel(1)
	h := newTestHost(t, k)
	ref := bootAndConfigure(t, k, h)

	img, err := h.SnapshotVM(ref.ID, "winxp-configured")
	if err != nil {
		t.Fatal(err)
	}
	if img.Name != "winxp-configured" || img.ResidentPages == 0 {
		t.Fatalf("image: %+v", img)
	}

	// Flash-clone a fleet off the snapshot; each clone sees the
	// configured state in memory.
	for i := 0; i < 5; i++ {
		clone, err := h.FlashClone("winxp-configured", netsim.Addr(i+10), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := clone.Mem.Read(7, 0, 24); string(got) != "configured service state" {
			t.Fatalf("clone %d memory = %q", i, got)
		}
		// Pristine image content beyond the configuration is intact.
		if !bytes.Equal(clone.Mem.Read(100, 0, 32), ref.Mem.Read(100, 0, 32)) {
			t.Fatalf("clone %d diverges from reference", i)
		}
	}
	k.Run()

	// Clone writes never leak back to the reference or the image.
	c, _ := h.FlashClone("winxp-configured", 99, nil)
	c.WriteMemory(7, 0, []byte("tampered"))
	if got := ref.Mem.Read(7, 0, 8); string(got) != "configu"+"r" {
		t.Errorf("reference memory mutated: %q", got)
	}
	c2, _ := h.FlashClone("winxp-configured", 100, nil)
	if got := c2.Mem.Read(7, 0, 10); string(got) != "configured" {
		t.Errorf("image mutated: %q", got)
	}
}

func TestSnapshotSourceKeepsRunning(t *testing.T) {
	k := sim.NewKernel(1)
	h := newTestHost(t, k)
	ref := bootAndConfigure(t, k, h)
	if _, err := h.SnapshotVM(ref.ID, "snap"); err != nil {
		t.Fatal(err)
	}
	// Source writes after the snapshot CoW away from the image.
	ref.WriteMemory(7, 0, []byte("drifted"))
	clone, _ := h.FlashClone("snap", 50, nil)
	if got := clone.Mem.Read(7, 0, 10); string(got) != "configured" {
		t.Errorf("post-snapshot source write leaked into image: %q", got)
	}
}

func TestSnapshotRejectsClones(t *testing.T) {
	k := sim.NewKernel(1)
	h := newTestHost(t, k)
	clone, err := h.FlashClone("winxp", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if _, err := h.SnapshotVM(clone.ID, "bad"); err == nil {
		t.Error("snapshot of a clone accepted")
	}
}

func TestSnapshotRejectsNonRunning(t *testing.T) {
	k := sim.NewKernel(1)
	h := newTestHost(t, k)
	vm, err := h.FullBoot("winxp", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Still booting.
	if _, err := h.SnapshotVM(vm.ID, "bad"); err == nil {
		t.Error("snapshot of a booting VM accepted")
	}
	if _, err := h.SnapshotVM(9999, "bad"); err == nil {
		t.Error("snapshot of a missing VM accepted")
	}
}

func TestFullBootRejectsSnapshotImages(t *testing.T) {
	k := sim.NewKernel(1)
	h := newTestHost(t, k)
	ref := bootAndConfigure(t, k, h)
	if _, err := h.SnapshotVM(ref.ID, "snap"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.FullBoot("snap", 2, nil); err == nil {
		t.Error("full boot from a snapshot image accepted (content not reproducible)")
	}
}
