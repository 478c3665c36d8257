package main

import (
	"bytes"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"testing"
	"time"

	"potemkin/internal/ingest"
)

// TestMain doubles as the command: with FLOODGEN_TEST_MAIN set, this
// test binary runs main on its own arguments instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("FLOODGEN_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFloodgenDeliversEveryPacket floods a loopback listener at a rate
// loopback carries without loss: the listener receives exactly the
// packets floodgen says it sent, every one decodes, and no GRE sequence
// number is missing.
func TestFloodgenDeliversEveryPacket(t *testing.T) {
	l, err := ingest.Listen(ingest.Config{Addr: "127.0.0.1:0", Timestamped: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cmd := exec.Command(os.Args[0], "-to", l.Addr().String(), "-rate", "2000", "-duration", "500ms", "-report", "0")
	cmd.Env = append(os.Environ(), "FLOODGEN_TEST_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("floodgen: %v\n%s", err, stderr.Bytes())
	}
	m := regexp.MustCompile(`flooded (\d+) packets`).FindSubmatch(out)
	if m == nil {
		t.Fatalf("no packet count in floodgen's report:\n%s", out)
	}
	sent, err := strconv.ParseUint(string(m[1]), 10, 64)
	if err != nil || sent == 0 {
		t.Fatalf("floodgen reported %q sent", m[1])
	}
	// The last datagrams may still be in the socket when floodgen exits.
	deadline := time.Now().Add(5 * time.Second)
	for l.Stats().Received < sent && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	st := l.Stats()
	if st.Received != sent || st.FrameErrors != 0 || st.SeqGaps != 0 || st.Dropped != 0 {
		t.Errorf("floodgen sent %d packets; the listener received %d, %d undecodable, %d sequence gaps, %d dropped",
			sent, st.Received, st.FrameErrors, st.SeqGaps, st.Dropped)
	}
}
