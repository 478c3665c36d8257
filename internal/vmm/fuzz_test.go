package vmm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// v1Checkpoint is a version-1 checkpoint file: one page (vpn 3) and the
// disk section version 2 dropped, holding block 9.
func v1Checkpoint() []byte {
	le := binary.LittleEndian
	b := le.AppendUint32(nil, checkpointMagic)
	b = le.AppendUint32(b, 1)
	b = le.AppendUint32(b, uint32(len("winxp")))
	b = append(b, "winxp"...)
	b = le.AppendUint32(b, 0x0a050102)
	b = le.AppendUint64(b, 1)
	b = le.AppendUint64(b, 3)
	b = append(b, make([]byte, 4096)...)
	b = le.AppendUint64(b, 1)
	b = le.AppendUint64(b, 9)
	return append(b, 0x66)
}

func TestReadCheckpointRejectsVersion1(t *testing.T) {
	if _, err := ReadCheckpoint(bytes.NewReader(v1Checkpoint())); !errors.Is(err, ErrBadCkptVer) {
		t.Fatalf("version-1 checkpoint: err = %v, want ErrBadCkptVer", err)
	}
}

// FuzzReadCheckpoint: checkpoint files come from disk and may be
// corrupted or hostile; the reader must never panic or over-allocate
// unboundedly on garbage.
func FuzzReadCheckpoint(f *testing.F) {
	ck := &Checkpoint{
		ImageName: "winxp",
		IP:        0x0a050102,
		Pages:     map[uint64][]byte{3: make([]byte, 4096)},
	}
	var buf bytes.Buffer
	ck.WriteTo(&buf)
	f.Add(buf.Bytes())
	f.Add([]byte("POTK"))
	f.Add([]byte{})
	f.Add(v1Checkpoint())
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted checkpoints round trip.
		var out bytes.Buffer
		if _, err := got.WriteTo(&out); err != nil {
			t.Fatalf("re-serialize failed: %v", err)
		}
		again, err := ReadCheckpoint(&out)
		if err != nil {
			t.Fatalf("re-read failed: %v", err)
		}
		if again.ImageName != got.ImageName || again.IP != got.IP || len(again.Pages) != len(got.Pages) {
			t.Fatalf("round trip diverged: %q %v %d pages, want %q %v %d pages",
				again.ImageName, again.IP, len(again.Pages), got.ImageName, got.IP, len(got.Pages))
		}
		for vpn, page := range got.Pages {
			if !bytes.Equal(again.Pages[vpn], page) {
				t.Fatalf("round trip changed page %d", vpn)
			}
		}
	})
}
