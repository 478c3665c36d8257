package core

// Replay feeding, factored out of the shard engine so every epoch
// runner — the engine's over its kernels, the cluster coordinator's
// over its workers — replays a telescope source with byte-identical
// semantics: records are batched one epoch ahead (bounded memory),
// out-of-order records clamp forward, and the run extends past the last
// record by an epilogue.

import (
	"io"
	"time"

	"potemkin/internal/sim"
	"potemkin/internal/telescope"
)

// ReplayFeeder streams a telescope source into epoch-sized batches.
type ReplayFeeder struct {
	src  telescope.Source
	halt func() bool
	base sim.Time
	last sim.Time

	pending telescope.Record
	have    bool
	done    bool
	err     error
}

// NewReplayFeeder wraps src; record times are offset by base (the
// barrier clock at replay start).
func NewReplayFeeder(src telescope.Source, halt func() bool, base sim.Time) *ReplayFeeder {
	return &ReplayFeeder{src: src, halt: halt, base: base, last: base}
}

// read pulls the next record into pending (consulting halt first) and
// reports whether one is buffered. EOF, halt, and errors mark the
// feeder done.
func (f *ReplayFeeder) read() bool {
	if f.done {
		return false
	}
	if f.have {
		return true
	}
	if f.halt != nil && f.halt() {
		f.done = true
		return false
	}
	err := f.src.Read(&f.pending)
	if err == io.EOF {
		f.done = true
		return false
	}
	if err != nil {
		f.done, f.err = true, err
		return false
	}
	f.pending.At += f.base
	f.have = true
	return true
}

// NextAt reports the time of the next unscheduled record, reading one
// ahead if necessary, or sim.End when the source is exhausted. It is
// the injection horizon adaptive lookahead widens against: no record
// earlier than NextAt can still be fed (for time-sorted sources — see
// ReplayOver).
func (f *ReplayFeeder) NextAt() sim.Time {
	if !f.read() {
		return sim.End
	}
	return f.pending.At
}

// Feed emits every record falling inside [start, end) in trace order.
// Records that sort before start (out-of-order traces) are clamped to
// start, and the clamp sticks so time stays monotonic. halt, when
// non-nil, is consulted before each read and ends the feed early.
func (f *ReplayFeeder) Feed(start, end sim.Time, emit func(at sim.Time, rec telescope.Record)) {
	for f.read() {
		at := f.pending.At
		if at < start {
			at = start
		}
		if at >= end {
			f.pending.At = at // keep the clamp so time stays monotonic
			return            // belongs to a later epoch
		}
		rec := f.pending
		rec.At = at
		if at > f.last {
			f.last = at
		}
		f.have = false
		emit(at, rec)
	}
}

// Done reports whether the source is exhausted (EOF, halt, or error).
func (f *ReplayFeeder) Done() bool { return f.done }

// Err returns the first source error, if any.
func (f *ReplayFeeder) Err() error { return f.err }

// Last returns the latest record time emitted (base when none were).
func (f *ReplayFeeder) Last() sim.Time { return f.last }

// replayStrideEpochs is how many lookahead cells each RunEpochs stride
// spans. The feeder stops the barrier at the first epoch boundary after
// source exhaustion regardless, so the stride only bounds how much
// simulated time one driver-loop iteration covers; it must be at least
// the adaptive-lookahead cell cap for widening to pay off.
const replayStrideEpochs = 256

// ReplayOver streams src through an epoch runner: schedule is called
// single-threaded from the pre-epoch hook for every record falling
// inside the upcoming epoch, in trace order; then the epoch runs. After
// the last record the run extends by epilogue past the final record
// time. Returns the number of records scheduled and the first source
// error.
//
// The feeder's read-ahead is installed as the runner's injection
// horizon, so under adaptive lookahead quiet stretches of the trace pay
// one barrier per widened window instead of one per lookahead cell. For
// time-sorted sources — which is what telescope.Generate and every
// capture-order pcap produce — the widened run is byte-identical to
// fixed lookahead: a record never clamps, so epoch bounds cannot
// influence record times. An unsorted
// source still replays deterministically per mode, but its forward
// clamps depend on the epoch grid, so only fixed lookahead reproduces
// the historical fixed-epoch bytes for it.
func ReplayOver(b *sim.ParallelRunner, src telescope.Source, halt func() bool, epilogue time.Duration,
	schedule func(at sim.Time, rec telescope.Record)) (int, error) {
	f := NewReplayFeeder(src, halt, b.Now())
	n := 0
	b.SetFeed(func(start, end sim.Time) {
		f.Feed(start, end, func(at sim.Time, rec telescope.Record) {
			n++
			schedule(at, rec)
		})
	}, f.NextAt)
	stride := time.Duration(replayStrideEpochs) * b.Lookahead()
	stalled := false
	f.NextAt() // prime, so an empty source is known before the first epoch
	if f.Done() {
		// Nothing to feed: run the single epoch fixed lookahead would
		// have, so the final clock agrees across every mode.
		b.RunFor(b.Lookahead())
	}
	for !f.Done() {
		before := b.Now()
		b.RunEpochs(before.Add(stride), f.Done)
		if b.Now() == before {
			// The runner's transport failed to advance — a degraded
			// cluster stops here rather than hanging the feed.
			stalled = true
			break
		}
	}
	b.SetFeed(nil, nil)
	if target := f.Last().Add(epilogue); !stalled && target > b.Now() {
		b.RunUntil(target)
	}
	return n, f.Err()
}
