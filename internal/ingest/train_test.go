package ingest

import (
	"net"
	"reflect"
	"testing"
	"time"

	"potemkin/internal/netsim"
	"potemkin/internal/sim"
)

// arrival is what a test keeps of one received frame.
type arrival struct {
	N   int
	TS  sim.Time
	Seq uint32
	Pkt netsim.Packet
}

// collectArrivals reads the batches off shard 0 until they have brought
// at least n frames, failing the test when they have not all come within
// a deadline far above trainDelay.
func collectArrivals(t *testing.T, l *Listener, n int) []arrival {
	t.Helper()
	out := make([]arrival, 0, n)
	deadline := time.After(5 * time.Second)
	for len(out) < n {
		select {
		case b, ok := <-l.Frames(0):
			if !ok {
				t.Fatalf("frames channel closed after %d of %d", len(out), n)
			}
			for _, f := range b.Frames {
				out = append(out, arrival{N: f.N, TS: f.TS, Seq: f.Seq, Pkt: *f.Pkt.Clone()})
			}
			l.Release(b)
		case <-deadline:
			t.Fatalf("timed out after %d of %d frames", len(out), n)
		}
	}
	return out
}

// wireShape is one way a train can cross the socket.
type wireShape struct {
	name           string
	noSegment, gro bool
}

var wireShapes = []wireShape{
	{"segmented+gro", false, true},
	{"segmented", false, false},
	{"per-datagram+gro", true, true},
	{"per-datagram", true, false},
}

// pair opens a listener on loopback with cfg, and a sender to it in the
// given shape.
func (w wireShape) pair(t *testing.T, cfg Config) (*Listener, *WireSender) {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	l, err := Listen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	s, err := DialWire(l.Addr().String(), 7, cfg.Timestamped)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if w.noSegment {
		s.DisableSegmentation()
	}
	if !w.gro {
		l.DisableGRO()
	}
	l.trains.Store(true) // a read is one batch, as under a WireSource
	return l, s
}

// pending returns how many frames the sender's current train holds.
func pending(s *WireSender) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.segs
}

// countersOnly drops the scheduling-dependent queue readings from a Stats.
func countersOnly(st Stats) Stats {
	st.QueueDepth, st.QueueHWM = 0, 0
	return st
}

// syn is the i-th test packet: a SYN whose payload length comes from
// pay, so frames are 60 bytes (no payload) or longer.
func syn(i int, pay int) *netsim.Packet {
	pkt := netsim.TCPSyn(netsim.MustParseAddr("1.2.3.4"), netsim.MustParseAddr("10.5.0.9"), uint16(1024+i), 445, uint32(i))
	if pay > 0 {
		pkt.Payload = make([]byte, pay)
		for j := range pkt.Payload {
			pkt.Payload[j] = byte(i + j + 1)
		}
	}
	return pkt
}

// checkArrivals requires got to be exactly the packets sent, in order,
// with consecutive GRE sequence numbers from firstSeq.
func checkArrivals(t *testing.T, got []arrival, sent []*netsim.Packet, firstSeq uint32) {
	t.Helper()
	for i, a := range got {
		want := *sent[i]
		if a.Seq != firstSeq+uint32(i) {
			t.Fatalf("frame %d: GRE sequence %d, want %d", i, a.Seq, firstSeq+uint32(i))
		}
		if a.TS != sim.Time(i+1) {
			t.Fatalf("frame %d: timestamp %d, want %d", i, a.TS, i+1)
		}
		if len(want.Payload) == 0 {
			want.Payload, a.Pkt.Payload = nil, nil
		}
		if !reflect.DeepEqual(a.Pkt, want) {
			t.Fatalf("frame %d: got %+v, want %+v", i, a.Pkt, want)
		}
	}
}

// sendAll sends pkts stamped 1, 2, 3, ...
func sendAll(t *testing.T, s *WireSender, pkts []*netsim.Packet) {
	t.Helper()
	for i, pkt := range pkts {
		if err := s.SendPacket(sim.Time(i+1), pkt); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTrains drives a real sender against a real listener over loopback
// in every shape a train can cross the socket in, and requires each
// shape to deliver the same frames and the same Stats as the first.
func TestTrains(t *testing.T) {
	type outcome struct {
		Frames []arrival
		Stats  Stats
	}
	cases := []struct {
		name string
		run  func(t *testing.T, w wireShape) outcome
	}{
		{"mixed lengths arrive in order", func(t *testing.T, w wireShape) outcome {
			l, s := w.pair(t, Config{Timestamped: true})
			var pkts []*netsim.Packet
			for i, pay := range []int{0, 0, 12, 0, 12, 12, 12, 0, 0, 0, 400, 0} {
				pkts = append(pkts, syn(i, pay))
			}
			sendAll(t, s, pkts)
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			got := collectArrivals(t, l, len(pkts))
			checkArrivals(t, got, pkts, 0)
			if got[0].N != 60 || got[2].N != 72 {
				t.Fatalf("frame lengths %d, %d; want 60, 72", got[0].N, got[2].N)
			}
			return outcome{got, l.Stats()}
		}},
		{"130 equal frames are two full trains and a tail", func(t *testing.T, w wireShape) outcome {
			l, s := w.pair(t, Config{Timestamped: true})
			pkts := make([]*netsim.Packet, 2*trainSegs+2)
			for i := range pkts {
				pkts[i] = syn(i, 0)
			}
			sendAll(t, s, pkts)
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			got := collectArrivals(t, l, len(pkts))
			checkArrivals(t, got, pkts, 0)
			return outcome{got, l.Stats()}
		}},
		{"the backstop sends what nobody flushed", func(t *testing.T, w wireShape) outcome {
			l, s := w.pair(t, Config{Timestamped: true})
			pkts := []*netsim.Packet{syn(0, 0), syn(1, 0), syn(2, 0)}
			sendAll(t, s, pkts)
			got := collectArrivals(t, l, len(pkts)) // no Flush, no Close
			checkArrivals(t, got, pkts, 0)
			return outcome{got, l.Stats()}
		}},
		{"Close flushes", func(t *testing.T, w wireShape) outcome {
			l, s := w.pair(t, Config{Timestamped: true})
			pkts := []*netsim.Packet{syn(0, 0), syn(1, 12), syn(2, 12)}
			sendAll(t, s, pkts)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if n := pending(s); n != 0 {
				t.Fatalf("%d frames left in the train after Close", n)
			}
			got := collectArrivals(t, l, len(pkts))
			checkArrivals(t, got, pkts, 0)
			return outcome{got, l.Stats()}
		}},
		{"plain framing never waits", func(t *testing.T, w wireShape) outcome {
			l, s := w.pair(t, Config{})
			var got []arrival
			for i := 0; i < 3; i++ {
				if err := s.SendPacket(0, syn(i, 0)); err != nil {
					t.Fatal(err)
				}
				if n := pending(s); n != 0 || s.timer != nil {
					t.Fatalf("plain frame %d held back: %d in the train, timer started=%v", i, n, s.timer != nil)
				}
				got = append(got, collectArrivals(t, l, 1)...) // readable before the next SendPacket
			}
			for i := range got {
				if got[i].Seq != uint32(i) || got[i].Pkt.SrcPort != uint16(1024+i) {
					t.Fatalf("frame %d: %+v", i, got[i])
				}
				got[i].TS = 0 // arrival wall time
			}
			return outcome{got, l.Stats()}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var ref outcome
			for i, w := range wireShapes {
				var got outcome
				t.Run(w.name, func(t *testing.T) { got = c.run(t, w) })
				if t.Failed() {
					return
				}
				st := got.Stats
				if st.SeqGaps != 0 || st.FrameErrors != 0 || st.Dropped != 0 || st.Received != uint64(len(got.Frames)) {
					t.Fatalf("%s: lossy transport: %+v", w.name, st)
				}
				got.Stats = countersOnly(st)
				if i == 0 {
					ref = got
				} else if !reflect.DeepEqual(got, ref) {
					t.Fatalf("%s differs from %s:\n got %+v\nwant %+v", w.name, wireShapes[0].name, got.Stats, ref.Stats)
				}
			}
		})
	}
}

// TestTrainOwnerAgainstTimer paces the owner so that the backstop timer
// keeps firing into half-built trains: whichever side sends a train,
// every frame arrives once, in order. Run under -race it is the check
// on the one piece of concurrency the sender has.
func TestTrainOwnerAgainstTimer(t *testing.T) {
	l, s := wireShapes[0].pair(t, Config{Timestamped: true})
	const frames = 3000
	sendErr := make(chan error, 1)
	go func() {
		pkt := syn(0, 0)
		for i := 0; i < frames; i++ {
			if err := s.SendPacket(sim.Time(i+1), pkt); err != nil {
				sendErr <- err
				return
			}
			if i%7 == 6 {
				time.Sleep(trainDelay / 3)
			}
		}
		sendErr <- nil
	}()
	got := collectArrivals(t, l, frames)
	if err := <-sendErr; err != nil {
		t.Fatal(err)
	}
	for i, a := range got {
		if a.Seq != uint32(i) || a.TS != sim.Time(i+1) {
			t.Fatalf("frame %d: sequence %d, timestamp %d", i, a.Seq, a.TS)
		}
	}
	if st := l.Stats(); st.Received != frames || st.SeqGaps != 0 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if s.Sent != frames {
		t.Fatalf("Sent = %d, want %d", s.Sent, frames)
	}
}

// TestSendPacketZeroAllocs pins the sender's share of "nothing may
// allocate per train": appending to the train, building the control
// message, re-arming the timer and the segmented send itself. The
// socket it sends to is bound and never read, so the kernel drops what
// overflows its buffer.
func TestSendPacketZeroAllocs(t *testing.T) {
	dead, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer dead.Close()
	s, err := DialWire(dead.LocalAddr().String(), 1, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pkt := syn(0, 0)
	send := func() {
		if err := s.SendPacket(1, pkt); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4*trainSegs; i++ { // grow the train buffer, start the timer
		send()
	}
	if allocs := testing.AllocsPerRun(50*trainSegs, send); allocs != 0 {
		t.Fatalf("steady-state SendPacket allocates %.2f times per frame, want 0", allocs)
	}
}
