package cluster

import (
	"encoding/json"
	"net"
	"slices"
	"testing"
	"time"

	"potemkin/internal/netsim"
	"potemkin/internal/sim"
)

// FuzzEpochDone feeds arbitrary epoch-done payloads to a coordinator
// awaiting epoch 5, which ends at 11 ms, from worker 0 of 2, owner of
// shards 0 and 2 of 4. A payload decodeEpochDone rejects marks the
// worker dead; one it accepts keeps every barrier rule and is recorded;
// nothing panics.
func FuzzEpochDone(f *testing.F) {
	const seq, shards = 5, 4
	end := sim.Time(11 * time.Millisecond)
	owned := []int{0, 2}
	pkt := appendPacket(nil, netsim.TCPSyn(1, 2, 3, 4, 5))
	next := end
	entry := outboxEntry{Src: 2, Dst: 1, At: end, Pkt: pkt}
	seed := func(outbox []outboxEntry, next sim.Time) {
		b, err := json.Marshal(epochDoneMsg{Seq: seq, Outbox: outbox, Next: next})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	with := func(edit func(e *outboxEntry)) []outboxEntry {
		e := entry
		edit(&e)
		return []outboxEntry{e}
	}
	seed([]outboxEntry{entry}, next)                                                 // accepted
	seed(with(func(e *outboxEntry) { e.Dst = shards }), next)                        // no such shard
	seed(with(func(e *outboxEntry) { e.At = end - 1 }), next)                        // inside the epoch
	seed(with(func(e *outboxEntry) { e.Src = 1 }), next)                             // from a shard it does not own
	seed(with(func(e *outboxEntry) { e.Pkt = pkt[:len(pkt)-1] }), next)              // truncated packet
	seed(nil, -1)                                                                    // negative
	seed(nil, end-1)                                                                 // before the barrier
	f.Add([]byte(`{"Seq":5,"Outbox":[{"Src":0,"Dst":0,"At":11000000,"Pkt":"!!"}]}`)) // bad base64
	f.Add([]byte("{"))

	f.Fuzz(func(t *testing.T, payload []byte) {
		pa, pb := net.Pipe()
		defer pb.Close()
		w := &wconn{conn: newConn(pa), id: 0, stop: make(chan struct{})}
		c := &Coordinator{
			shards: shards, workers: 2, seq: seq, curEnd: end,
			assigned:  []*wconn{w, nil},
			next:      make([]sim.Time, 2),
			advanceNS: make([]int64, 2),
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
			if !slices.Contains(owned, e.Src) || e.Dst < 0 || e.Dst >= shards || e.At < end {
				t.Fatalf("accepted outbox entry %+v breaks the barrier", e)
			}
		}
		if m.Next < end {
			t.Fatalf("accepted next event %v before the barrier at %v", m.Next, end)
		}
		if c.next[0] != m.Next || len(c.doneOutbox) != len(m.Outbox) {
			t.Fatal("an accepted epoch-done was not recorded")
		}
	})
}
