package ingest

// WireSource adapts a live Listener into a telescope.Source, which is
// what removes the wire/parallel wall: live ingest becomes "Replay from
// a wire-backed source", so the parallel engine's existing epoch
// feeding machinery (core.ReplayOver) quantizes wire arrivals onto the
// epoch grid with exactly the mechanics an offline pcap replay uses.
// Records are scheduled from the single-threaded pre-epoch hook of the
// epoch they fall in, so kernel insertion order — the tie-breaker for
// same-instant events — is identical between a live run and a replay of
// its capture.
//
// Three properties make the live run *replayable* (byte-identical to a
// sequential replay of its own capture):
//
//  1. Monotone quantization. Wire arrivals can interleave out of order
//     across the listener's shard queues; the source clamps every
//     emitted record time to be >= the previous one (counted in
//     Clamped), so downstream it is a time-sorted source. Sorted
//     sources never clamp in the feeder, which is the precondition for
//     adaptive epoch widening to leave the bytes unchanged (see
//     core.ReplayOver).
//  2. Record normalization. The emitted record — not the raw datagram —
//     is the replay currency: the capture writes the record's own
//     materialized packet, so a replay parses back precisely what the
//     live run scheduled. Non-zero payload content (exploit bytes) is
//     copied out of the frame and survives the round trip.
//  3. Time-sorted capture. The capture is written in emission order at
//     the clamped times, so it is sorted by construction and replays
//     through the same feeder path without clamping.
//
// Read blocks until a frame arrives or the listener closes and drains;
// that is the conservative contract — virtual time must not advance
// past arrivals that have not happened yet, and wall-clock silence must
// not advance virtual time at all (it would not replay).

import (
	"io"
	"sync"
	"sync/atomic"

	"potemkin/internal/metrics"
	"potemkin/internal/sim"
	"potemkin/internal/telescope"
)

// WireSource turns a Listener's decapsulated frames into a time-sorted
// stream of telescope records. Configure the exported fields before the
// first Read; the counters may be read from any goroutine mid-run.
type WireSource struct {
	// L is the listener to drain. Read returns io.EOF once L is closed
	// and every queued frame has been consumed.
	L *Listener
	// Speedup scales wall arrival offsets onto virtual time under plain
	// (non-timestamped) framing: virtual = wall_offset * Speedup. Zero
	// means 1. Ignored for timestamped frames, whose virtual time is
	// exact.
	Speedup float64
	// Capture, when non-nil, receives every emitted record as one pcap
	// packet at its emitted (clamped) time — the live run's replayable
	// artifact. The writer is flushed when the source reaches EOF; the
	// caller owns the underlying file.
	Capture *PcapWriter
	// Metrics, when non-nil, registers the ingest_arrival_lag_ms
	// histogram: how far behind the already-emitted virtual stream each
	// frame arrived (0 for in-order arrivals, the clamp magnitude
	// otherwise). Recorded per record on the driver goroutine, it shows
	// whether ingest reordering or barrier wait bounds live throughput.
	Metrics *metrics.Registry

	merged  <-chan *Batch
	cur     *Batch // the batch being walked; nil between batches
	next    int    // cur's next frame
	started bool
	last    sim.Time
	lag     *metrics.Hist
	buf     []byte
	err     error

	emitted atomic.Uint64
	clamped atomic.Uint64
}

// Emitted returns the number of records handed to the replay machinery.
func (ws *WireSource) Emitted() uint64 { return ws.emitted.Load() }

// Clamped returns how many frames arrived behind the emitted virtual
// stream and were quantized forward to keep the source time-sorted.
func (ws *WireSource) Clamped() uint64 { return ws.clamped.Load() }

// Read implements telescope.Source: it takes the next frame of the batch
// it holds — blocking for the next batch after the last — maps its
// timestamp onto the monotone virtual stream, and emits it as a record
// (copying any payload content out of the recycled batch, which it
// releases after its last frame). The capture, when configured, is
// written before the record is returned, so a record the simulation saw
// is always in the artifact.
func (ws *WireSource) Read(rec *telescope.Record) error {
	if !ws.started {
		ws.started = true
		ws.L.trains.Store(true)
		ws.merged = mergeFrames(ws.L)
		ws.lag = ws.Metrics.Hist("ingest_arrival_lag_ms") // nil, a no-op, without Metrics
	}
	if ws.err != nil {
		return ws.err
	}
	if ws.cur == nil {
		b, ok := <-ws.merged
		if !ok {
			if ws.Capture != nil {
				if err := ws.Capture.Flush(); err != nil {
					ws.err = err
					return err
				}
			}
			return io.EOF
		}
		ws.cur, ws.next = b, 0
	}
	f := &ws.cur.Frames[ws.next]
	ws.next++
	speed := ws.Speedup
	if speed <= 0 {
		speed = 1
	}
	ts := f.TS
	if !ws.L.cfg.Timestamped && speed != 1 {
		ts = sim.Time(float64(ts) * speed)
	}
	lag := 0.0
	if ts < ws.last {
		lag = float64(ws.last-ts) / 1e6
		ts = ws.last
		ws.clamped.Add(1)
	} else {
		ws.last = ts
	}
	ws.lag.Observe(lag)
	*rec = telescope.RecordOf(ts, &f.Pkt)
	if hasContent(f.Pkt.Payload) {
		rec.Payload = append([]byte(nil), f.Pkt.Payload...)
	}
	if ws.next == len(ws.cur.Frames) {
		ws.L.Release(ws.cur)
		ws.cur = nil
	}
	ws.emitted.Add(1)
	if ws.Capture != nil {
		pkt := rec.Packet()
		if n := pkt.WireLen(); cap(ws.buf) < n {
			ws.buf = make([]byte, n)
		} else {
			ws.buf = ws.buf[:n]
		}
		pkt.MarshalInto(ws.buf)
		if err := ws.Capture.WritePacket(ts, ws.buf); err != nil {
			// A broken capture voids the replayability contract; fail
			// the feed rather than serve an unreplayable run.
			ws.err = err
			return err
		}
	}
	return nil
}

// hasContent reports whether p carries any non-zero byte. All-zero
// payloads collapse to PayLen-only records — the same packet bytes
// re-materialize either way, and zero-filled traces keep their
// historical record form.
func hasContent(p []byte) bool {
	for _, b := range p {
		if b != 0 {
			return true
		}
	}
	return false
}

// mergeFrames fans the listener's shard queues into one channel of
// batches. With one shard this is a direct handoff; with several,
// interleaving across shards follows goroutine scheduling
// (per-destination order is still preserved, because the listener
// shards by destination).
func mergeFrames(l *Listener) <-chan *Batch {
	if l.Shards() == 1 {
		return l.Frames(0)
	}
	merged := make(chan *Batch, l.Shards())
	var wg sync.WaitGroup
	for i := 0; i < l.Shards(); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for b := range l.Frames(i) {
				merged <- b
			}
		}(i)
	}
	go func() {
		wg.Wait()
		close(merged)
	}()
	return merged
}
