package ingest_test

// The loopback determinism proof: a trace replayed over a real UDP
// socket must drive the honeyfarm to the exact same final state as the
// same trace replayed in process. This is the property that lets wire
// experiments be debugged by deterministic re-simulation. It holds
// because (a) the timestamped framing carries exact virtual
// nanoseconds, so arrival jitter never reaches the simulation, and
// (b) a wire feed and an in-process replay enter the simulation
// through the same epoch feeder (core.ReplayOver).

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"
	"time"

	potemkin "potemkin"
	"potemkin/internal/ingest"
	"potemkin/internal/telescope"
)

const detSeed = 42

func detTrace(t testing.TB) []telescope.Record {
	t.Helper()
	cfg := telescope.DefaultGenConfig()
	cfg.Duration = 20 * time.Second
	cfg.Rate = 300
	cfg.Seed = detSeed
	recs, err := telescope.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func statsJSON(t testing.TB, hf *potemkin.Honeyfarm) []byte {
	t.Helper()
	b, err := json.Marshal(hf.Stats())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runInProcess replays the trace through the facade directly.
func runInProcess(t testing.TB, recs []telescope.Record) []byte {
	hf := potemkin.MustNew(potemkin.Options{Seed: detSeed})
	defer hf.Close()
	if _, err := hf.Replay(&telescope.SliceSource{Recs: recs}); err != nil {
		t.Fatal(err)
	}
	return statsJSON(t, hf)
}

// runOverWire converts the trace to a pcap file, replays the pcap over
// a loopback UDP socket into an identically-seeded honeyfarm serving
// Options.Wire. The sender waits for the farm to consume each chunk it
// sends, so no queue ever overflows: determinism is only claimed for
// lossless transport.
func runOverWire(t testing.TB, recs []telescope.Record) []byte {
	var pcap bytes.Buffer
	if _, err := ingest.WritePcap(&pcap, &telescope.SliceSource{Recs: recs}); err != nil {
		t.Fatal(err)
	}

	hf := potemkin.MustNew(potemkin.Options{Seed: detSeed, Wire: &potemkin.WireOptions{Addr: "127.0.0.1:0"}})
	defer hf.Close()
	srv, err := hf.StartWire()
	if err != nil {
		t.Fatal(err)
	}
	type served struct {
		ws  potemkin.WireStats
		err error
	}
	done := make(chan served, 1)
	go func() {
		ws, err := srv.Serve()
		done <- served{ws, err}
	}()

	s, err := ingest.DialWire(srv.Addr().String(), 1, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	src, err := ingest.NewPcapSource(bytes.NewReader(pcap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Send in chunks of 1024 datagrams, each consumed by the farm before
	// the next leaves, so the bounded queues never overflow.
	var sent uint64
	for {
		n, _, err := ingest.Replay(s, &chunkSource{src: src, left: 1024}, ingest.ReplayOptions{MaxRate: true})
		if err != nil {
			t.Fatal(err)
		}
		sent += n
		if n < 1024 {
			break
		}
		waitUntil(t, func() bool { return srv.Stats().Ingest.Delivered == sent })
	}

	// Let the listener finish receiving, then stop it; Serve drains the
	// queues and returns.
	waitUntil(t, func() bool { return srv.Stats().Ingest.Received == sent })
	srv.Stop()
	var res served
	select {
	case res = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not finish")
	}
	if res.err != nil {
		t.Fatalf("Serve: %v", res.err)
	}
	st := res.ws.Ingest
	if st.Dropped != 0 || st.FrameErrors != 0 || st.SeqGaps != 0 {
		t.Fatalf("transport was lossy, determinism void: %+v", st)
	}
	if st.Delivered != sent {
		t.Fatalf("delivered %d of %d", st.Delivered, sent)
	}
	return statsJSON(t, hf)
}

// chunkSource reads at most left records of src, then reports io.EOF.
type chunkSource struct {
	src  telescope.Source
	left int
}

func (c *chunkSource) Read(rec *telescope.Record) error {
	if c.left == 0 {
		return io.EOF
	}
	c.left--
	return c.src.Read(rec)
}

func waitUntil(t testing.TB, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 10s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWireReplayDeterminism is the acceptance test: same seed, same
// trace, one run in process and one over a real socket through the pcap
// codec, byte-identical final stats.
func TestWireReplayDeterminism(t *testing.T) {
	recs := detTrace(t)
	ref := runInProcess(t, recs)
	wire := runOverWire(t, recs)
	if !bytes.Equal(ref, wire) {
		t.Fatalf("wire replay diverged from in-process replay\n in-process: %s\n wire:       %s", ref, wire)
	}
	// And a second wire run reproduces the first.
	again := runOverWire(t, recs)
	if !bytes.Equal(wire, again) {
		t.Fatalf("wire replay not reproducible\n first:  %s\n second: %s", wire, again)
	}
}
