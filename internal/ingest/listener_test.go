package ingest

import (
	"encoding/binary"
	"testing"
	"time"

	"potemkin/internal/gre"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/telescope"
)

// collect reads at least n frames from the listener (all shards) or
// fails the test after a deadline. Frames are cloned to records and
// their batches released.
func collect(t *testing.T, l *Listener, n int) []telescope.Record {
	t.Helper()
	var out []telescope.Record
	deadline := time.After(5 * time.Second)
	for len(out) < n {
		for i := 0; i < l.Shards(); i++ {
			select {
			case b, ok := <-l.Frames(i):
				if !ok {
					t.Fatalf("frames channel closed after %d of %d", len(out), n)
				}
				for _, f := range b.Frames {
					out = append(out, telescope.RecordOf(f.TS, &f.Pkt))
				}
				l.Release(b)
			case <-deadline:
				t.Fatalf("timed out after %d of %d frames", len(out), n)
			case <-time.After(10 * time.Millisecond):
				// try the next shard
			}
		}
	}
	return out
}

// TestWireLoopbackRoundTrip sends GRE-over-UDP packets through a real
// loopback socket and proves every record field and virtual timestamp
// survives: encap -> wire -> decap is lossless.
func TestWireLoopbackRoundTrip(t *testing.T) {
	recs := testRecords(t, 300)
	l, err := Listen(Config{Addr: "127.0.0.1:0", Timestamped: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	s, err := DialWire(l.Addr().String(), 7, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for i := range recs {
		if err := s.SendPacket(recs[i].At, recs[i].Packet()); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, l, len(recs))
	for i := range recs {
		if !got[i].Equal(&recs[i]) {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], recs[i])
		}
	}
	st := l.Stats()
	if st.Received != uint64(len(recs)) || st.Enqueued != uint64(len(recs)) {
		t.Fatalf("stats = %+v", st)
	}
	if st.FrameErrors != 0 || st.Dropped != 0 || st.SeqGaps != 0 {
		t.Fatalf("unexpected loss: %+v", st)
	}
}

// TestWireLoopbackSharded runs the same round trip across several decap
// shards; per-destination order must survive even though global order
// may not.
func TestWireLoopbackSharded(t *testing.T) {
	recs := testRecords(t, 300)
	l, err := Listen(Config{Addr: "127.0.0.1:0", Timestamped: true, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	s, err := DialWire(l.Addr().String(), 7, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	done := make(chan []telescope.Record)
	go func() {
		var out []telescope.Record
		for len(out) < len(recs) {
			for i := 0; i < l.Shards(); i++ {
				select {
				case b := <-l.Frames(i):
					if b != nil {
						for _, f := range b.Frames {
							out = append(out, telescope.RecordOf(f.TS, &f.Pkt))
						}
						l.Release(b)
					}
				default:
				}
			}
		}
		done <- out
	}()
	for i := range recs {
		if err := s.SendPacket(recs[i].At, recs[i].Packet()); err != nil {
			t.Fatal(err)
		}
	}
	var got []telescope.Record
	select {
	case got = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("timed out collecting sharded frames")
	}

	// Per-destination subsequences keep their order.
	wantByDst := map[netsim.Addr][]telescope.Record{}
	for _, r := range recs {
		wantByDst[r.Dst] = append(wantByDst[r.Dst], r)
	}
	gotByDst := map[netsim.Addr][]telescope.Record{}
	for _, r := range got {
		gotByDst[r.Dst] = append(gotByDst[r.Dst], r)
	}
	for dst, want := range wantByDst {
		g := gotByDst[dst]
		if len(g) != len(want) {
			t.Fatalf("dst %s: %d records, want %d", dst, len(g), len(want))
		}
		for i := range want {
			if !g[i].Equal(&want[i]) {
				t.Fatalf("dst %s record %d: got %+v, want %+v", dst, i, g[i], want[i])
			}
		}
	}
}

// TestSeqGapAccounting proves missing GRE sequence numbers are counted
// per tunnel key.
func TestSeqGapAccounting(t *testing.T) {
	l, err := Listen(Config{Addr: "127.0.0.1:0", Timestamped: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	s, err := DialWire(l.Addr().String(), 3, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pkt := netsim.TCPSyn(netsim.MustParseAddr("1.2.3.4"), netsim.MustParseAddr("10.5.0.9"), 4444, 445, 0)
	s.SendPacket(1, pkt) // seq 0
	s.SendPacket(2, pkt) // seq 1
	s.seq += 5           // simulate five lost datagrams
	s.SendPacket(3, pkt) // seq 7
	collect(t, l, 3)
	if gaps := l.Stats().SeqGaps; gaps != 5 {
		t.Fatalf("SeqGaps = %d, want 5", gaps)
	}
}

// TestFrameErrors proves undecodable datagrams are counted, not fatal.
func TestFrameErrors(t *testing.T) {
	l, err := Listen(Config{Addr: "127.0.0.1:0", Timestamped: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	s, err := DialWire(l.Addr().String(), 3, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Garbage straight to the socket: too short, bad GRE, bad inner IP.
	s.conn.Write([]byte{1, 2, 3})
	junk := make([]byte, 64)
	s.conn.Write(junk)
	pkt := netsim.TCPSyn(netsim.MustParseAddr("1.2.3.4"), netsim.MustParseAddr("10.5.0.9"), 4444, 445, 0)
	s.SendPacket(1, pkt)
	collect(t, l, 1)
	st := l.Stats()
	if st.FrameErrors != 2 {
		t.Fatalf("FrameErrors = %d (stats %+v), want 2", st.FrameErrors, st)
	}
	if st.Enqueued != 1 {
		t.Fatalf("Enqueued = %d, want 1", st.Enqueued)
	}
}

// buildWireFrame assembles the timestamped framing for one packet the
// way WireSender does, into a fresh buffer.
func buildWireFrame(ts sim.Time, key, seq uint32, pkt *netsim.Packet) []byte {
	raw := pkt.Marshal()
	h := gre.Header{HasKey: true, HasSequence: true, Key: key, Sequence: seq}
	buf := make([]byte, tsPrefixLen+h.Len()+len(raw))
	binary.BigEndian.PutUint64(buf, uint64(ts))
	gre.EncapInto(&h, buf[tsPrefixLen:], raw)
	return buf
}

// TestDecapZeroAllocs pins the acceptance criterion: the decap hot path
// (timestamp strip, GRE decap, in-place IPv4 parse) performs zero heap
// allocations per packet.
func TestDecapZeroAllocs(t *testing.T) {
	pkt := netsim.TCPSyn(netsim.MustParseAddr("1.2.3.4"), netsim.MustParseAddr("10.5.0.9"), 4444, 445, 99)
	wire := buildWireFrame(12345, 7, 0, pkt)
	l := &Listener{cfg: Config{Timestamped: true, Shards: 1}}
	f := &Frame{}
	lastSeq := map[uint32]uint32{7: 0} // pre-seeded, as in steady state
	if !l.decode(f, wire, lastSeq) {
		t.Fatal("decode failed")
	}
	allocs := testing.AllocsPerRun(200, func() {
		if !l.decode(f, wire, lastSeq) {
			t.Fatal("decode failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("decap path allocates %.1f times per packet, want 0", allocs)
	}
	if f.Pkt.Dst != pkt.Dst || f.Pkt.DstPort != 445 || f.TS != 12345 || f.Key != 7 {
		t.Fatalf("decoded frame = %+v", f)
	}
}

// BenchmarkIngestDecap measures the per-packet cost of the wire decap
// hot path (the number recorded in BENCH_core.json).
func BenchmarkIngestDecap(b *testing.B) {
	pkt := netsim.TCPSyn(netsim.MustParseAddr("1.2.3.4"), netsim.MustParseAddr("10.5.0.9"), 4444, 445, 99)
	wire := buildWireFrame(12345, 7, 0, pkt)
	l := &Listener{cfg: Config{Timestamped: true, Shards: 1}}
	f := &Frame{}
	lastSeq := map[uint32]uint32{7: 0}
	b.ReportAllocs()
	b.SetBytes(int64(len(wire)))
	for i := 0; i < b.N; i++ {
		if !l.decode(f, wire, lastSeq) {
			b.Fatal("decode failed")
		}
	}
}

// BenchmarkWireSenderEncap measures the sender-side encapsulation cost:
// one frame appended to the train, with no socket behind it.
func BenchmarkWireSenderEncap(b *testing.B) {
	pkt := netsim.TCPSyn(netsim.MustParseAddr("1.2.3.4"), netsim.MustParseAddr("10.5.0.9"), 4444, 445, 99)
	s := &WireSender{Key: 7, Timestamped: true}
	raw := pkt.Marshal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if s.segs == trainSegs {
			s.train, s.segs = s.train[:0], 0
		}
		s.appendFrame(sim.Time(i), raw)
	}
}
