package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"potemkin/internal/telescope"
)

// TestPcapRoundTrip: a generated trace exported to pcap and imported
// back is the same .potm, byte for byte — the pcap codec loses nothing
// the trace format keeps.
func TestPcapRoundTrip(t *testing.T) {
	dir := t.TempDir()
	gen, pcap, back := filepath.Join(dir, "gen.potm"), filepath.Join(dir, "gen.pcap"), filepath.Join(dir, "back.potm")
	cmdGen([]string{"-out", gen, "-duration", "5s", "-rate", "300"})
	cmdExport([]string{"-in", gen, "-out", pcap})
	cmdImport([]string{"-in", pcap, "-out", back})

	want, err := os.ReadFile(gen)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(back)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := telescope.ReadAll(bytes.NewReader(want))
	if err != nil || len(recs) == 0 {
		t.Fatalf("generated trace holds %d records (%v)", len(recs), err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("re-imported trace (%d bytes) differs from the generated one (%d bytes, %d packets)", len(got), len(want), len(recs))
	}
}
