package ingest

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"syscall"
	"testing"
	"time"

	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/telescope"
)

// groControl builds the control data the kernel attaches to a coalesced
// read: one UDP_GRO message carrying the segment size as an int.
func groControl(size int) []byte {
	b := make([]byte, cmsgAlign(cmsgHdrLen+4))
	putCmsgLen(b, cmsgHdrLen+4)
	binary.NativeEndian.PutUint32(b[cmsgLenSize:], syscall.IPPROTO_UDP)
	binary.NativeEndian.PutUint32(b[cmsgLenSize+4:], udpGRO)
	binary.NativeEndian.PutUint32(b[cmsgHdrLen:], uint32(size))
	return b
}

// otherControl is a well-formed control message that is not UDP_GRO.
func otherControl() []byte {
	b := groControl(60)
	binary.NativeEndian.PutUint32(b[cmsgLenSize:], syscall.SOL_SOCKET)
	return b
}

// TestSplitTrain is the splitter as a pure function of one read.
func TestSplitTrain(t *testing.T) {
	cases := []struct {
		name string
		n    int
		oob  []byte
		want []int
	}{
		{"no control message is one frame", 150, nil, []int{150}},
		{"segment 60 over 150 bytes", 150, groControl(60), []int{60, 60, 30}},
		{"segment 60 over 120 bytes", 120, groControl(60), []int{60, 60}},
		{"segment as long as the read", 60, groControl(60), []int{60}},
		{"segment longer than the read", 60, groControl(90), []int{60}},
		{"zero-length datagram is one frame", 0, nil, []int{0}},
		{"zero-length datagram under GRO", 0, groControl(60), []int{0}},
		{"zero segment size is ignored", 150, groControl(0), []int{150}},
		{"negative segment size is ignored", 150, groControl(-60), []int{150}},
		{"another message comes first", 150, append(otherControl(), groControl(50)...), []int{50, 50, 50}},
		{"only another message", 150, otherControl(), []int{150}},
		{"truncated control message", 150, groControl(60)[:cmsgHdrLen+2], []int{150}},
		{"a full train", 64 * 60, groControl(60), slices.Repeat([]int{60}, 64)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			data := make([]byte, c.n)
			for i := range data {
				data[i] = byte(i)
			}
			var got []int
			var joined []byte
			splitTrain(data, c.oob, func(seg []byte) {
				got = append(got, len(seg))
				joined = append(joined, seg...)
			})
			if !slices.Equal(got, c.want) {
				t.Fatalf("segments %v, want %v", got, c.want)
			}
			if !bytes.Equal(joined, data) {
				t.Fatal("segments do not tile the read in order")
			}
		})
	}
}

// TestSplitTrainZeroAllocs: cutting a full train and walking its control
// message allocates nothing — wire-warm's 1.3 bytes per packet is gated.
func TestSplitTrainZeroAllocs(t *testing.T) {
	data, oob := make([]byte, 64*60), groControl(60)
	segs := 0
	each := func(seg []byte) { segs++ }
	allocs := testing.AllocsPerRun(200, func() { splitTrain(data, oob, each) })
	if allocs != 0 {
		t.Fatalf("splitTrain allocates %.1f times per read, want 0", allocs)
	}
	if segs != 201*64 {
		t.Fatalf("cut %d segments over 201 reads, want %d", segs, 201*64)
	}
}

// TestOverlongSegment: a segment longer than frameBufSize is counted as
// received, with frameBufSize bytes, and as a frame error — the outcome
// a truncated socket read had. The frames after it in the same train are
// untouched.
func TestOverlongSegment(t *testing.T) {
	l, err := Listen(Config{Addr: "127.0.0.1:0", Timestamped: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const segLen = frameBufSize + 904
	big := syn(0, 0)
	big.Payload = make([]byte, segLen-60)
	train := append(buildWireFrame(1, 7, 0, big), buildWireFrame(2, 7, 1, syn(1, 0))...)
	if len(train) != segLen+60 {
		t.Fatalf("built a %d-byte train, want %d", len(train), segLen+60)
	}
	l.acceptRead(train, groControl(segLen), 0)
	got := collectArrivals(t, l, 1)
	if got[0].Seq != 1 || got[0].N != 60 {
		t.Fatalf("surviving frame = %+v", got[0])
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.Stats().FrameErrors == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	st := l.Stats()
	if st.Received != 2 || st.FrameErrors != 1 || st.Enqueued != 1 || st.Bytes != frameBufSize+60 {
		t.Fatalf("stats = %+v, want 2 received, 1 frame error, 1 enqueued, %d bytes", st, frameBufSize+60)
	}
}

// TestSegmentRefusedFallsBack provokes a real refusal — the kernel will
// not segment on a socket with checksums off (EINVAL) — and requires the
// sender to deliver the same train one datagram per segment, once each,
// and to stop asking.
func TestSegmentRefusedFallsBack(t *testing.T) {
	l, s := wireShapes[0].pair(t, Config{Timestamped: true})
	rc, err := s.conn.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_NO_CHECK, 1)
	}); err != nil || serr != nil {
		t.Skipf("cannot switch UDP checksums off: %v %v", err, serr)
	}
	pkts := []*netsim.Packet{syn(0, 0), syn(1, 0), syn(2, 0), syn(3, 0)}
	sendAll(t, s, pkts)
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush after a refused segmented send: %v", err)
	}
	checkArrivals(t, collectArrivals(t, l, len(pkts)), pkts, 0)
	if !s.noSegment {
		t.Fatal("the kernel segmented on a socket with checksums off; the test provoked nothing")
	}
	sendAll(t, s, pkts) // the next train goes the other way from the start
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	collectArrivals(t, l, len(pkts))
	if st := l.Stats(); st.Received != uint64(2*len(pkts)) || st.SeqGaps != 0 {
		t.Fatalf("stats = %+v, want %d received and no gaps", st, 2*len(pkts))
	}
}

// FuzzSplitTrain: the datagram and its control data both come from
// outside the program (any host can send to the port; the control bytes
// are the kernel's, but the walk must not trust their lengths). Whatever
// they hold, the cut never panics, yields the read's bytes exactly once
// and in order, and never yields more segments than there are bytes.
func FuzzSplitTrain(f *testing.F) {
	pkt := netsim.TCPSyn(netsim.MustParseAddr("1.2.3.4"), netsim.MustParseAddr("10.5.0.9"), 4444, 445, 7)
	frame := buildWireFrame(1, 7, 0, pkt)
	f.Add(bytes.Repeat(frame, 3), groControl(len(frame)))
	f.Add(frame, []byte(nil))
	f.Add([]byte(nil), groControl(60))
	f.Add(bytes.Repeat(frame, 2)[:100], append(otherControl(), groControl(1)...))
	huge := groControl(60)
	putCmsgLen(huge, math.MaxInt32) // far past the buffer on every word size
	f.Add(frame, huge)
	f.Fuzz(func(t *testing.T, data, oob []byte) {
		segs, at := 0, 0
		splitTrain(data, oob, func(seg []byte) {
			if at+len(seg) > len(data) || (len(seg) > 0 && &seg[0] != &data[at]) {
				t.Fatalf("segment %d (%d bytes) is not the read at offset %d", segs, len(seg), at)
			}
			segs++
			at += len(seg)
		})
		if at != len(data) {
			t.Fatalf("segments cover %d of %d bytes", at, len(data))
		}
		if segs > max(1, len(data)) {
			t.Fatalf("%d segments from %d bytes", segs, len(data))
		}
	})
}

// TestListenerSteadyStateAllocs: once its free list is warm, the reader's
// per-read path and WireSource.Read move a timestamped train from the
// read buffer to records without allocating per train or per frame —
// pushing 1,000 trains allocates no more than pushing 100.
func TestListenerSteadyStateAllocs(t *testing.T) {
	l := newListener(Config{Timestamped: true, Shards: 1, QueueLen: 4096})
	ws := &WireSource{L: l}
	var train []byte
	for i := 0; i < trainSegs; i++ {
		train = append(train, buildWireFrame(sim.Time(i+1), 7, uint32(i), syn(i, 0))...)
	}
	read, oob := make([]byte, len(train)), groControl(len(train)/trainSegs)
	var rec telescope.Record
	push := func(trains int) {
		for i := 0; i < trains; i++ {
			copy(read, train)
			l.acceptRead(read, oob, 0)
			for k := 0; k < trainSegs; k++ {
				if err := ws.Read(&rec); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	push(100) // fill the free list; the first Read starts walking trains
	emitted := ws.Emitted()
	perSmall := testing.AllocsPerRun(5, func() { push(100) })
	perLarge := testing.AllocsPerRun(5, func() { push(1000) })
	if got, want := ws.Emitted()-emitted, uint64(6*(100+1000)*trainSegs); got != want {
		t.Fatalf("measured pushes emitted %d records, want %d", got, want)
	}
	if st := l.Stats(); st.Dropped != 0 || st.FrameErrors != 0 || st.QueueDepth != 0 {
		t.Fatalf("stats = %+v, want every frame emitted and released", st)
	}
	if more := perLarge - perSmall; more > 4 {
		t.Fatalf("900 more trains allocate %.0f more objects (%.4f per frame), want 0", more, more/(900*trainSegs))
	}
}

// FuzzAcceptTrain: arbitrary read bytes and a GRO segment size through
// the reader's per-read path. Every datagram is counted once — one over
// frameBufSize as a frame error of frameBufSize bytes, a zero-length one
// as a received frame and a frame error — and every queued frame equals
// what its datagram decodes to from a private copy, re-marshalled, after
// the read buffer has been overwritten: nothing queued aliases it.
func FuzzAcceptTrain(f *testing.F) {
	frame := buildWireFrame(1, 7, 0, syn(0, 12))
	f.Add(bytes.Repeat(frame, 3), len(frame), true)
	f.Add(bytes.Repeat(frame, 3), len(frame), false)
	f.Add(frame, 0, true)
	f.Add([]byte(nil), 60, true)
	big := buildWireFrame(1, 7, 0, syn(0, frameBufSize))
	f.Add(append(big, frame...), len(big), true)
	f.Fuzz(func(t *testing.T, data []byte, size int, trains bool) {
		data = data[:min(len(data), readBufSize)]
		cfg := Config{Timestamped: true, Shards: 2, QueueLen: 4096}
		l, ref := newListener(cfg), newListener(cfg)
		l.trains.Store(trains)
		oob := groControl(size)

		// What each datagram should come to, decoded from its own copy.
		var want Stats
		wantFrames := make([][]Frame, cfg.Shards)
		splitTrain(data, oob, func(seg []byte) {
			want.Received++
			want.Bytes += uint64(min(len(seg), frameBufSize))
			var f Frame
			if len(seg) > frameBufSize || !ref.decode(&f, bytes.Clone(seg), ref.lastSeq) {
				want.FrameErrors++
				return
			}
			want.Enqueued++
			s := uint32(f.Pkt.Dst) % uint32(cfg.Shards)
			wantFrames[s] = append(wantFrames[s], f)
		})
		if len(data) == 0 && (want.Received != 1 || want.FrameErrors != 1) {
			t.Fatalf("a zero-length read counts %+v, want one received frame and one frame error", want)
		}

		read := bytes.Clone(data)
		l.acceptRead(read, oob, 0)
		for i := range read {
			read[i] = 0xa5
		}
		want.SeqGaps = ref.seqGaps.Load()
		want.QueueDepth = int(want.Enqueued)
		want.QueueHWM = want.QueueDepth // nothing is released while the read is taken
		if st := l.Stats(); st != want {
			t.Fatalf("stats = %+v, want %+v", st, want)
		}
		for s := range wantFrames {
			n := 0
			for len(l.Frames(s)) > 0 {
				b := <-l.Frames(s)
				if !trains && len(b.Frames) != 1 {
					t.Fatalf("a batch of %d frames before any consumer walks trains", len(b.Frames))
				}
				for i := range b.Frames {
					if n == len(wantFrames[s]) {
						t.Fatalf("shard %d queued more than the %d frames its datagrams decode to", s, n)
					}
					g, w := &b.Frames[i], &wantFrames[s][n]
					if !reflect.DeepEqual(g, w) || !bytes.Equal(g.Pkt.Marshal(), w.Pkt.Marshal()) {
						t.Fatalf("shard %d frame %d: got %+v, want %+v", s, n, *g, *w)
					}
					n++
				}
				l.Release(b)
			}
			if n != len(wantFrames[s]) {
				t.Fatalf("shard %d queued %d frames, want %d", s, n, len(wantFrames[s]))
			}
		}
		if d := l.QueueDepth(); d != 0 {
			t.Fatalf("queue depth %d after releasing every batch", d)
		}
	})
}
