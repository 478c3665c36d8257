package ingest

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"potemkin/internal/netsim"
	"potemkin/internal/sim"
)

// eventually polls cond until it holds, failing the test after 10 s.
func eventually(t *testing.T, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 10s")
		}
	}
}

// TestShardedFeedReportsNoFalseGaps: GRE sequence numbers are per tunnel
// key, and the destinations of one key's frames spread over every shard,
// so only something that sees the whole feed can tell a gap from a
// neighbour's frame. A lossless feed from one key reports no gap at any
// shard count, and each shard's queue holds its own destinations in the
// order the socket delivered them.
func TestShardedFeedReportsNoFalseGaps(t *testing.T) {
	const frames = 200
	for _, shards := range []int{1, 2} {
		l, err := Listen(Config{Addr: "127.0.0.1:0", Timestamped: true, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		l.trains.Store(true)
		s, err := DialWire(l.Addr().String(), 7, true)
		if err != nil {
			l.Close()
			t.Fatal(err)
		}
		base := netsim.MustParseAddr("10.5.0.0")
		for i := 0; i < frames; i++ {
			pkt := netsim.TCPSyn(netsim.MustParseAddr("1.2.3.4"), base+netsim.Addr(i), 4444, 445, 0)
			if err := s.SendPacket(sim.Time(i+1), pkt); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()
		eventually(t, func() bool { return l.Stats().Enqueued == frames })
		l.Close()
		for q := 0; q < shards; q++ {
			last := -1
			for b := range l.Frames(q) {
				for _, f := range b.Frames {
					if got := int(uint32(f.Pkt.Dst) % uint32(shards)); got != q {
						t.Fatalf("shards=%d: queue %d holds a frame for %s, which belongs to queue %d", shards, q, f.Pkt.Dst, got)
					}
					if int(f.Seq) <= last {
						t.Fatalf("shards=%d: queue %d delivered GRE sequence %d after %d", shards, q, f.Seq, last)
					}
					last = int(f.Seq)
				}
				l.Release(b)
			}
		}
		st := l.Stats()
		if st.SeqGaps != 0 || st.Received != st.Enqueued || st.Dropped != 0 || st.FrameErrors != 0 {
			t.Fatalf("shards=%d: lossless %d-frame feed reports %+v", shards, frames, st)
		}
	}
}

// TestReaderNeverBlocks: with the consumer stalled the reader keeps the
// socket drained — what does not fit the queue is dropped and counted,
// every frame is accounted for exactly once, and Close returns with the
// reader gone and the queued frames still readable.
func TestReaderNeverBlocks(t *testing.T) {
	const (
		frames   = 500
		queueLen = 8
		held     = 2 * queueLen // what one shard's queue holds
	)
	baseline := runtime.NumGoroutine()
	l, err := Listen(Config{Addr: "127.0.0.1:0", Timestamped: true, QueueLen: queueLen})
	if err != nil {
		t.Fatal(err)
	}
	l.trains.Store(true)
	s, err := DialWire(l.Addr().String(), 7, true)
	if err != nil {
		l.Close()
		t.Fatal(err)
	}
	if _, err := s.conn.Write([]byte{1, 2, 3}); err != nil { // one undecodable datagram
		t.Fatal(err)
	}
	for i := 0; i < frames; i++ {
		if err := s.SendPacket(sim.Time(i+1), syn(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Nobody reads Frames(0), and the socket still empties.
	var st Stats
	eventually(t, func() bool {
		st = l.Stats()
		return st.Received == frames+1 && st.Received == st.Enqueued+st.Dropped+st.FrameErrors
	})
	if st.Enqueued != held || st.Dropped != frames-held || st.FrameErrors != 1 || st.SeqGaps != 0 {
		t.Fatalf("stalled consumer: %+v, want %d enqueued, %d dropped, 1 frame error, no gaps", st, held, frames-held)
	}

	closed := make(chan error, 1)
	go func() { closed <- l.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return with the consumer stalled")
	}
	n := 0
	for b := range l.Frames(0) {
		for _, f := range b.Frames {
			if int(f.Seq) != n {
				t.Fatalf("queued frame %d has GRE sequence %d: the queue kept the oldest frames, in order", n, f.Seq)
			}
			n++
		}
		l.Release(b)
	}
	if n != held {
		t.Fatalf("%d frames readable after Close, want the %d queued", n, held)
	}
	eventually(t, func() bool { return runtime.NumGoroutine() <= baseline })
}

// TestQueueBoundCountsFrames: a shard's bound is 2 × QueueLen frames,
// not batches. With the consumer stalled, 64-frame trains leave exactly
// the oldest 16 frames queued — in every shape a train can cross the
// socket in, and whether a read's frames ride one batch or one batch
// each — and drop the rest.
func TestQueueBoundCountsFrames(t *testing.T) {
	const (
		queueLen = 8
		held     = 2 * queueLen
		frames   = 3 * trainSegs
	)
	for _, w := range wireShapes {
		for _, trains := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/trains=%v", w.name, trains), func(t *testing.T) {
				l, s := w.pair(t, Config{Timestamped: true, QueueLen: queueLen})
				l.trains.Store(trains)
				pkts := make([]*netsim.Packet, frames)
				for i := range pkts {
					pkts[i] = syn(i, 0)
				}
				sendAll(t, s, pkts)
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
				var st Stats
				eventually(t, func() bool {
					st = l.Stats()
					return st.Received == frames
				})
				want := Stats{Received: frames, Bytes: 60 * frames, Enqueued: held, Dropped: frames - held, QueueDepth: held, QueueHWM: held}
				if st != want {
					t.Fatalf("stalled consumer: %+v, want %+v", st, want)
				}
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				n := 0
				for b := range l.Frames(0) {
					if !trains && len(b.Frames) != 1 {
						t.Fatalf("a batch of %d frames before any consumer walks trains", len(b.Frames))
					}
					for _, f := range b.Frames {
						if int(f.Seq) != n {
							t.Fatalf("queued frame %d has GRE sequence %d, want the oldest frames in order", n, f.Seq)
						}
						n++
					}
					l.Release(b)
				}
				if n != held || l.QueueDepth() != 0 {
					t.Fatalf("%d frames queued, depth %d after releasing them; want %d and 0", n, l.QueueDepth(), held)
				}
			})
		}
	}
}
