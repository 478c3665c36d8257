package telescope

// Streaming trace plumbing: multi-GB traces flow through summaries and
// replays in bounded memory. Source is the record iterator everything
// consumes, Summary accumulates trace statistics incrementally, and
// StreamReplayer drives a Source through the sim kernel one record
// ahead.

import (
	"io"
	"time"

	"potemkin/internal/netsim"
	"potemkin/internal/sim"
)

// Source yields trace records in non-decreasing time order. Read fills
// *rec and returns io.EOF after the last record. SliceSource adapts
// in-memory traces; ingest.PcapSource adapts pcap files.
type Source interface {
	Read(rec *Record) error
}

// SliceSource is a Source over an in-memory record slice.
type SliceSource struct {
	Recs []Record
	next int
}

// Read implements Source.
func (s *SliceSource) Read(rec *Record) error {
	if s.next >= len(s.Recs) {
		return io.EOF
	}
	*rec = s.Recs[s.next]
	s.next++
	return nil
}

// Summary accumulates trace statistics incrementally, so a multi-GB
// trace can be summarized without holding its records.
type Summary struct {
	srcs  map[netsim.Addr]struct{}
	dsts  map[netsim.Addr]struct{}
	count int
	last  sim.Time
}

// Add folds one record into the summary.
func (a *Summary) Add(rec *Record) {
	if a.srcs == nil {
		a.srcs = make(map[netsim.Addr]struct{})
		a.dsts = make(map[netsim.Addr]struct{})
	}
	a.srcs[rec.Src] = struct{}{}
	a.dsts[rec.Dst] = struct{}{}
	a.count++
	if rec.At > a.last {
		a.last = rec.At
	}
}

// Stats returns the accumulated statistics.
func (a *Summary) Stats() Stats {
	st := Stats{
		Packets:       a.count,
		UniqueSources: len(a.srcs),
		UniqueDests:   len(a.dsts),
		Duration:      time.Duration(a.last),
	}
	if a.last > 0 {
		st.RatePPS = float64(a.count) / st.Duration.Seconds()
	}
	return st
}

// StreamReplayer injects a Source into a receiver over the sim kernel
// while holding only one record in memory. It alternates schedule-one /
// run-to-it rather than scheduling every record up front, so the kernel
// queue stays shallow. It is the hand-wired reference the one-shard
// engine's epoch feeder is proven byte-equal to
// (core.TestOneShardEngineMatchesHandWiredPipeline).
type StreamReplayer struct {
	K   *sim.Kernel
	Src Source
	// Emit receives each packet at its (Base-offset) trace time. The
	// packet is marked Ephemeral: the replayer has one record in flight
	// and builds every packet in the same storage, so a receiver that
	// keeps one past the call must Clone it.
	Emit func(now sim.Time, pkt *netsim.Packet)
	// Base is added to every record time (use K.Now() at start to play
	// a trace "from now").
	Base sim.Time
	// Halt, when non-nil, is consulted before each record; returning
	// true ends the replay early (clean shutdown on a signal).
	Halt func() bool
	// Injected counts packets delivered.
	Injected int
	// Last is the virtual time of the final injected record.
	Last sim.Time

	// The record in flight, its packet, and rp.emitCurrent bound once:
	// replaying a record allocates nothing.
	cur    Record
	pkt    netsim.Packet
	inject sim.Event
}

// Run replays the whole source, advancing the kernel as it goes, and
// returns the first read error (nil on clean EOF). Records whose time
// lags the clock (out-of-order sources) are clamped to "now".
func (rp *StreamReplayer) Run() error {
	if rp.inject == nil {
		rp.inject = rp.emitCurrent
	}
	for {
		if rp.Halt != nil && rp.Halt() {
			return nil
		}
		err := rp.Src.Read(&rp.cur)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		at := rp.cur.At + rp.Base
		if at < rp.K.Now() {
			at = rp.K.Now()
		}
		rp.K.At(at, rp.inject)
		rp.K.RunUntil(at)
		rp.Last = at
	}
}

// emitCurrent delivers the record in flight.
func (rp *StreamReplayer) emitCurrent(now sim.Time) {
	rp.cur.PacketInto(&rp.pkt)
	rp.Injected++
	rp.Emit(now, &rp.pkt)
}
