package cluster

import (
	"bytes"
	"net"
	"runtime"
	"slices"
	"testing"
	"time"

	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/telescope"
)

// TestReadFrameAllocatesWhatArrives: a header claiming the largest
// payload, then nothing, costs what arrived, not what it claimed — the
// coordinator reads such a header off any connection before the hello.
func TestReadFrameAllocatesWhatArrives(t *testing.T) {
	hdr := []byte{maxFrame >> 24, 0, 0, 0, byte(msgHello)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrame(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a header with no payload read as a frame")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("reading a bare %d-byte header allocated %d bytes", len(hdr), n)
	}
}

// FuzzEpochDone feeds arbitrary epoch-done payloads to a coordinator
// awaiting epoch 5, which ends at 11 ms, from worker 0 of 2, owner of
// shards 0 and 2 of 4. A payload decodeEpochDone rejects marks the
// worker dead; one it accepts keeps every barrier rule and is recorded;
// nothing panics.
func FuzzEpochDone(f *testing.F) {
	const seq, shards = 5, 4
	end := sim.Time(11 * time.Millisecond)
	owned := []int{0, 2}
	pkt := netsim.TCPSyn(1, 2, 3, 4, 5)
	entry := appendCross(nil, 2, 1, end, pkt)
	seed := func(next sim.Time, outbox ...[]byte) {
		f.Add(append(appendEpochDone(nil, seq, next, 3), bytes.Join(outbox, nil)...))
	}
	seed(end, entry)                                               // accepted
	seed(end, appendCross(nil, 2, shards, end, pkt))               // no such shard
	seed(end, appendCross(nil, 2, 1, end-1, pkt))                  // inside the epoch
	seed(end, appendCross(nil, 1, 3, end, pkt))                    // from a shard it does not own
	seed(end, entry[:len(entry)-1])                                // truncated packet
	seed(-1)                                                       // negative
	seed(end - 1)                                                  // before the barrier
	f.Add(appendEpochDone(nil, seq, end, 0)[:19])                  // truncated header
	f.Add([]byte("{"))                                             // not a frame
	seed(end, appendCross(nil, 2, 0, end, pkt))                    // to a shard it owns
	seed(end, appendRecord(nil, 1, end, telescope.Record{Dst: 2})) // not a cross input

	f.Fuzz(func(t *testing.T, payload []byte) {
		pa, pb := net.Pipe()
		defer pb.Close()
		w := &wconn{conn: newConn(pa), id: 0, stop: make(chan struct{})}
		c := &Coordinator{
			shards: shards, workers: 2, seq: seq, curEnd: end,
			assigned:   []*wconn{w, nil},
			inputs:     make([][]byte, 2),
			inputsNext: sim.End,
			next:       make([]sim.Time, 2),
			advanceNS:  make([]int64, 2),
		}
		c.recordEpochDone(w, arrival{frame: frame{typ: msgEpochDone, payload: payload}})

		m, err := decodeEpochDone(payload, shards, owned, end)
		if err != nil {
			if !w.dead {
				t.Fatalf("rejected epoch-done (%v) left the worker live", err)
			}
			return
		}
		if w.dead {
			t.Fatal("an accepted epoch-done killed the worker")
		}
		for _, e := range m.Outbox {
			in, err := decodeInput(&byteReader{b: e.raw}, shards)
			if err != nil || in.Kind != inputCross || !slices.Contains(owned, in.Src) ||
				slices.Contains(owned, in.Dst) || in.At < end || in.Dst != e.dst || in.At != e.at {
				t.Fatalf("accepted outbox entry %+v (%v) breaks the barrier", in, err)
			}
		}
		if m.Next < end {
			t.Fatalf("accepted next event %v before the barrier at %v", m.Next, end)
		}
		if c.next[0] != m.Next || c.sent != len(m.Outbox)+m.Colocated || len(c.inputs[1]) != len(payload)-20 {
			t.Fatal("an accepted epoch-done was not recorded")
		}
	})
}
