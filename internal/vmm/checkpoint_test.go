package vmm

import (
	"bytes"
	"testing"

	"potemkin/internal/mem"
	"potemkin/internal/sim"
)

func infectedVM(t *testing.T, h *VMHost) *VM {
	t.Helper()
	vm, err := h.FlashClone("winxp", 0x0a050102, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Dirty a recognizable delta.
	vm.WriteMemory(3, 100, []byte("malware unpacked here"))
	vm.WriteMemory(1700, 0, []byte{0xde, 0xad})
	return vm
}

func TestCheckpointCapturesDelta(t *testing.T) {
	k := sim.NewKernel(1)
	h := newTestHost(t, k)
	vm := infectedVM(t, h)
	ck := TakeCheckpoint(vm)
	if ck.ImageName != "winxp" || ck.IP != 0x0a050102 {
		t.Errorf("identity: %q %v", ck.ImageName, ck.IP)
	}
	if len(ck.Pages) != 2 {
		t.Errorf("pages = %d, want 2", len(ck.Pages))
	}
	if !bytes.Contains(ck.Pages[3], []byte("malware unpacked here")) {
		t.Error("page content missing")
	}
	if ck.Bytes() != 2*mem.PageSize {
		t.Errorf("Bytes = %d", ck.Bytes())
	}
	if n := h.Stats().Checkpoints; n != 1 {
		t.Errorf("host counted %d checkpoints, want 1", n)
	}
}

func TestCheckpointSerializationRoundTrip(t *testing.T) {
	k := sim.NewKernel(1)
	h := newTestHost(t, k)
	vm := infectedVM(t, h)
	ck := TakeCheckpoint(vm)

	var buf bytes.Buffer
	if _, err := ck.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ImageName != ck.ImageName || got.IP != ck.IP {
		t.Errorf("identity: %+v", got)
	}
	if len(got.Pages) != len(ck.Pages) {
		t.Fatalf("pages = %d", len(got.Pages))
	}
	for vpn, content := range ck.Pages {
		if !bytes.Equal(got.Pages[vpn], content) {
			t.Errorf("page %d content differs", vpn)
		}
	}
}

func TestCheckpointDeterministicBytes(t *testing.T) {
	k := sim.NewKernel(1)
	h := newTestHost(t, k)
	vm := infectedVM(t, h)
	ck := TakeCheckpoint(vm)
	var a, b bytes.Buffer
	ck.WriteTo(&a)
	ck.WriteTo(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("serialization not deterministic")
	}
}

func TestReadCheckpointRejectsGarbage(t *testing.T) {
	if _, err := ReadCheckpoint(bytes.NewReader([]byte("nope"))); err == nil {
		t.Error("short garbage accepted")
	}
	if _, err := ReadCheckpoint(bytes.NewReader(make([]byte, 64))); err != ErrBadCheckpoint {
		t.Error("bad magic accepted")
	}
}

func TestRestoreReproducesVM(t *testing.T) {
	k := sim.NewKernel(1)
	h := newTestHost(t, k)
	vm := infectedVM(t, h)
	ck := TakeCheckpoint(vm)
	h.Destroy(vm.ID)

	restored, err := h.Restore(ck, nil)
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	// Delta pages match.
	if got := restored.Mem.Read(3, 100, 21); string(got) != "malware unpacked here" {
		t.Errorf("restored page = %q", got)
	}
	// Untouched image pages match too.
	origClone, _ := h.FlashClone("winxp", 1, nil)
	if !bytes.Equal(restored.Mem.Read(50, 0, 64), origClone.Mem.Read(50, 0, 64)) {
		t.Error("restored image pages differ")
	}
	// Checkpointing the restore reproduces the checkpoint.
	ck2 := TakeCheckpoint(restored)
	if len(ck2.Pages) != len(ck.Pages) {
		t.Errorf("re-checkpoint delta differs: %d/%d pages", len(ck2.Pages), len(ck.Pages))
	}
	if err := h.CheckMemoryInvariants(); err != nil {
		t.Error(err)
	}
}

func TestRestoreUnknownImageFails(t *testing.T) {
	k := sim.NewKernel(1)
	h := newTestHost(t, k)
	ck := &Checkpoint{ImageName: "missing", Pages: map[uint64][]byte{}}
	if _, err := h.Restore(ck, nil); err == nil {
		t.Error("restore of unknown image succeeded")
	}
}

// TestRestoreRejectsOutOfRangeDelta: a structurally valid checkpoint
// whose delta addresses pages the image doesn't have must fail with an
// error (and no leaked VM), not a panic from the memory layer.
func TestRestoreRejectsOutOfRangeDelta(t *testing.T) {
	k := sim.NewKernel(1)
	h := newTestHost(t, k)
	vm := infectedVM(t, h)
	base := TakeCheckpoint(vm)
	h.Destroy(vm.ID)
	before := h.NumVMs()

	cases := []struct {
		name   string
		mutate func(ck *Checkpoint)
	}{
		{"page out of range", func(ck *Checkpoint) {
			ck.Pages[1<<40] = make([]byte, mem.PageSize)
		}},
		{"short page content", func(ck *Checkpoint) {
			ck.Pages[3] = []byte{1, 2, 3}
		}},
	}
	for _, tc := range cases {
		ck := &Checkpoint{
			ImageName: base.ImageName, IP: base.IP,
			Pages: map[uint64][]byte{},
		}
		for vpn, c := range base.Pages {
			ck.Pages[vpn] = c
		}
		tc.mutate(ck)
		if _, err := h.Restore(ck, nil); err == nil {
			t.Errorf("%s: restore succeeded", tc.name)
		}
		if h.NumVMs() != before {
			t.Errorf("%s: leaked VM (have %d, want %d)", tc.name, h.NumVMs(), before)
		}
	}
	if err := h.CheckMemoryInvariants(); err != nil {
		t.Error(err)
	}
}

// TestReadCheckpointTruncation: every proper prefix of a valid
// checkpoint errors cleanly.
func TestReadCheckpointTruncation(t *testing.T) {
	k := sim.NewKernel(1)
	h := newTestHost(t, k)
	vm := infectedVM(t, h)
	var buf bytes.Buffer
	TakeCheckpoint(vm).WriteTo(&buf)
	enc := buf.Bytes()
	for i := 0; i < len(enc); i++ {
		if _, err := ReadCheckpoint(bytes.NewReader(enc[:i])); err == nil {
			t.Fatalf("truncation at %d/%d bytes accepted", i, len(enc))
		}
	}
}

// TestReadCheckpointAbsurdCounts: corrupt count fields fail fast
// instead of driving a multi-billion-iteration read loop.
func TestReadCheckpointAbsurdCounts(t *testing.T) {
	k := sim.NewKernel(1)
	h := newTestHost(t, k)
	vm, err := h.FlashClone("winxp", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	TakeCheckpoint(vm).WriteTo(&buf)
	enc := buf.Bytes()
	// Page count sits right after magic, version, name length+bytes, IP.
	off := 4 + 4 + 4 + len("winxp") + 4
	for _, v := range []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f} {
		enc[off] = v
		off++
	}
	if _, err := ReadCheckpoint(bytes.NewReader(enc)); err == nil {
		t.Error("absurd page count accepted")
	}
}
