package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"potemkin/internal/ingest"
	"potemkin/internal/netsim"
	"potemkin/internal/telescope"
)

// TestPcapRoundTrip: the pcap gen writes reads back record for record
// equal to what telescope.Generate makes for the same config — the
// savefile loses nothing the trace model keeps.
func TestPcapRoundTrip(t *testing.T) {
	out := filepath.Join(t.TempDir(), "gen.pcap")
	cmdGen([]string{"-out", out, "-duration", "5s", "-rate", "300", "-seed", "3"})

	cfg := telescope.DefaultGenConfig()
	cfg.Space = netsim.MustParsePrefix("10.5.0.0/16")
	cfg.Duration, cfg.Rate, cfg.Seed = 5*time.Second, 300, 3
	want, err := telescope.Generate(cfg)
	if err != nil || len(want) == 0 {
		t.Fatalf("Generate: %d records (%v)", len(want), err)
	}

	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	src, err := ingest.NewPcapSource(f)
	if err != nil {
		t.Fatal(err)
	}
	var got telescope.Record
	for i := range want {
		if err := src.Read(&got); err != nil {
			t.Fatalf("record %d of %d: %v", i, len(want), err)
		}
		if !got.Equal(&want[i]) {
			t.Fatalf("record %d: read %+v, generated %+v", i, got, want[i])
		}
	}
	if err := src.Read(&got); err != io.EOF {
		t.Errorf("after %d records: %v, want io.EOF", len(want), err)
	}
	if src.Skipped != 0 {
		t.Errorf("%d frames skipped", src.Skipped)
	}
}
