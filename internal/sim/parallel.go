package sim

// Conservative parallel discrete-event execution over a set of Kernels.
//
// ParallelRunner advances N kernels in lockstep epochs of length
// `lookahead`, the classic conservative-synchronization scheme: during
// an epoch every kernel runs its own events on its own goroutine and
// may not touch any other kernel's state; all cross-kernel interaction
// is expressed as messages handed to Send, which are delivered only at
// the epoch barrier, in a fixed (source index, send order) merge order.
// Because a message sent at time t is delivered no earlier than t +
// lookahead — and every epoch is at most lookahead long — a message can
// never land inside the epoch that produced it, so each kernel's event
// stream is a pure function of the barrier-merged inputs and the run is
// byte-identical whether the epochs execute on goroutines or
// sequentially on one thread (SetSequential). That equivalence is what
// makes the parallel engine testable: the single-threaded mode is the
// oracle.
//
// # Adaptive lookahead
//
// SetAdaptive lets one epoch span several lookahead-sized cells when
// the runner can prove the extra barriers would have been no-ops. The
// widened window is derived purely from simulation state — the
// earliest pending kernel event plus the injection horizon installed
// with SetHorizon — never from wall clock, so a widened run stays
// byte-identical to the fixed-lookahead oracle: epochs only ever end on
// the same lookahead grid, and a grid cell is skipped only when no
// event, no injection, and therefore no cross-shard send could have
// occurred in it. See DESIGN.md "Epoch exchange" for the full argument.
//
// # Epoch exchange
//
// The per-(src,dst) outboxes are flat preallocated rings: Send appends
// into the source's cells during the epoch, and the barrier swaps each
// cell's live slice against a drained spare — no per-epoch allocation,
// and the slice being delivered into destination kernels is never the
// one a subsequent epoch appends to.
//
// The control methods (RunUntil, RunEpochs, RunFor, Send from outside
// an epoch, SetBeforeEpoch) are for a single driver goroutine. During
// an epoch, Send(src, ...) may only be called from shard src's
// goroutine — the per-pair outboxes are sharded by source exactly so
// that rule needs no locks.

import (
	"fmt"
	"sync"
	"time"
)

// Barrier is the epoch-coordination surface a shard executor runs on: a
// shared clock, epoch-wise advancement, and a single-threaded pre-epoch
// injection hook. The in-process implementation is *ParallelRunner;
// internal/cluster's Coordinator implements the same surface over
// remote worker processes, which is what lets replay drivers and
// experiment code run unchanged whether the shards live on goroutines
// or on other machines.
type Barrier interface {
	// Now returns the barrier clock; every shard has run to exactly
	// this time whenever no epoch is in flight.
	Now() Time
	// Lookahead returns the epoch length / minimum cross-shard latency.
	Lookahead() time.Duration
	// RunUntil advances every shard to deadline in epochs of at most
	// the lookahead (or wider when adaptive lookahead proves it safe).
	RunUntil(deadline Time)
	// RunEpochs advances like RunUntil but consults stop (when non-nil)
	// at each epoch barrier and returns early once it reports true —
	// replay drivers use it to hand the barrier a wide deadline while
	// still stopping at the first barrier after source exhaustion.
	RunEpochs(deadline Time, stop func() bool)
	// RunFor is RunUntil(Now()+d).
	RunFor(d time.Duration)
	// SetBeforeEpoch installs a hook called single-threaded at the
	// start of every epoch with the epoch bounds [start, end), before
	// any shard runs. Nil removes the hook.
	SetBeforeEpoch(fn func(start, end Time))
}

var _ Barrier = (*ParallelRunner)(nil)

// crossMsg is one scheduled cross-shard delivery.
type crossMsg struct {
	at Time
	fn Event
}

// outCell is one (src,dst) outbox: a live slice the source appends to
// during the epoch and a spare the barrier swaps in after draining, so
// capacity is reused forever and a draining slice is never appended to.
type outCell struct {
	live  []crossMsg
	spare []crossMsg
}

// ParallelRunner synchronizes kernels with conservative epoch barriers.
type ParallelRunner struct {
	kernels   []*Kernel
	lookahead time.Duration
	now       Time

	// outbox holds the n*n (src,dst) cells in src-major order — cell
	// (src,dst) lives at index src*n+dst, so iterating the flat slice
	// reproduces the (source index, send order) merge the equivalence
	// proof rests on. Only shard src's goroutine appends to src's row;
	// the barrier (WaitGroup) orders those appends before the exchange
	// reads them.
	outbox []outCell

	sequential  bool
	beforeEpoch func(start, end Time)
	afterEpoch  func()

	// adaptMax bounds how many lookahead cells one epoch may span
	// (1 = fixed epochs); horizon, when set, reports the earliest
	// simulated time an external injector (the replay feeder) may still
	// schedule work at. Widening is only attempted when the horizon
	// covers every injection source: with a beforeEpoch hook installed
	// but no horizon the runner cannot see what the hook would inject,
	// so it stays on fixed epochs.
	adaptMax int
	horizon  func() Time

	// Persistent shard workers: one goroutine per kernel, parked on its
	// channel between epochs, so an epoch costs n channel sends and one
	// WaitGroup wait instead of n goroutine spawns. A one-kernel runner
	// has none: there is nothing to overlap, so its kernel advances on
	// the caller's goroutine in either mode. curEnd and timed
	// are written by the driver before the sends (the channel send /
	// receive pair orders them); advanceNS[i] is written only by worker
	// i during an epoch and read by the driver after wg.Wait.
	work      []chan struct{}
	wg        sync.WaitGroup
	curEnd    Time
	timed     bool
	warm      bool
	advanceNS []int64
	waitNS    []int64
	closed    bool

	epochSeq uint64
	observer func(EpochStats)
}

// EpochStats is one epoch's wall-clock phase breakdown, reported to the
// observer installed with SetEpochObserver. Start/End are the epoch's
// simulated-time bounds; everything else is wall-clock. AdvanceNS[i] is
// shard i's kernel-advance duration and BarrierWaitNS[i] the time it
// then idled waiting for the slowest shard (max advance minus its own).
// ExchangeMsgs counts cross-shard messages delivered entering the
// epoch. These figures are observability-only — they never influence
// event order, so an observed run is byte-identical to an unobserved
// one. The slices are reused across epochs: observers must copy, not
// retain, them.
type EpochStats struct {
	Seq           uint64
	Start, End    Time
	WallNS        int64
	ExchangeNS    int64
	ExchangeMsgs  int
	AdvanceNS     []int64
	BarrierWaitNS []int64
	SlowestShard  int
}

// NewParallelRunner builds a runner over kernels with the given
// lookahead (the minimum cross-shard latency; must be positive). The
// runner's clock starts at the latest kernel clock and the lagging
// kernels are run forward to it, so pre-run setup (snapshot warmup)
// that advanced the kernels unevenly is tolerated.
func NewParallelRunner(kernels []*Kernel, lookahead time.Duration) *ParallelRunner {
	if len(kernels) == 0 {
		panic("sim: ParallelRunner with no kernels")
	}
	if lookahead <= 0 {
		panic("sim: ParallelRunner with non-positive lookahead")
	}
	r := &ParallelRunner{kernels: kernels, lookahead: lookahead, adaptMax: 1}
	n := len(kernels)
	r.outbox = make([]outCell, n*n)
	r.advanceNS = make([]int64, n)
	r.waitNS = make([]int64, n)
	r.Align()
	// Workers start (and warm up) here rather than lazily at the first
	// epoch: construction is the one place their setup cost can't land
	// inside a measured run. Sequential mode leaves them parked; Close
	// stops them either way.
	if n > 1 {
		r.startWorkers()
	}
	return r
}

// Align advances the runner clock to the latest kernel clock and runs
// every lagging kernel forward to it (single-threaded). Call it after
// advancing kernels outside the runner's control, e.g. per-shard image
// preparation at construction time.
func (r *ParallelRunner) Align() {
	for _, k := range r.kernels {
		if k.Now() > r.now {
			r.now = k.Now()
		}
	}
	for _, k := range r.kernels {
		k.RunUntil(r.now)
	}
}

// Now returns the runner clock: every kernel has run to exactly this
// time whenever no epoch is in flight.
func (r *ParallelRunner) Now() Time { return r.now }

// Lookahead returns the epoch grid cell length (the minimum cross-shard
// latency; an adaptive epoch may span several cells).
func (r *ParallelRunner) Lookahead() time.Duration { return r.lookahead }

// Shards returns the number of kernels.
func (r *ParallelRunner) Shards() int { return len(r.kernels) }

// Kernel returns shard i's kernel. Outside an epoch the caller may
// schedule on it directly; during an epoch only shard i's goroutine may.
func (r *ParallelRunner) Kernel(i int) *Kernel { return r.kernels[i] }

// Epochs returns the number of epochs completed so far (the adaptive
// lookahead tests assert a widened run pays fewer barriers).
func (r *ParallelRunner) Epochs() uint64 { return r.epochSeq }

// SetSequential switches epoch execution to a single thread in shard
// order — the determinism oracle the equivalence tests compare against.
func (r *ParallelRunner) SetSequential(seq bool) { r.sequential = seq }

// Sequential reports whether epochs run single-threaded.
func (r *ParallelRunner) Sequential() bool { return r.sequential }

// SetAdaptive bounds adaptive lookahead: one epoch may span up to
// maxCells lookahead-sized grid cells when the pending-event horizon
// proves the skipped barriers would have been no-ops. maxCells <= 1
// restores fixed epochs (the default). Call only between runs.
func (r *ParallelRunner) SetAdaptive(maxCells int) {
	const bound = 1 << 16 // keep cells*lookahead far from overflow
	if maxCells < 1 {
		maxCells = 1
	}
	if maxCells > bound {
		maxCells = bound
	}
	r.adaptMax = maxCells
}

// Adaptive returns the adaptive-lookahead cell bound (1 = fixed).
func (r *ParallelRunner) Adaptive() int { return r.adaptMax }

// SetHorizon installs the injection horizon for adaptive lookahead: fn
// reports the earliest simulated time the pre-epoch hook may still
// schedule work at (End when its source is exhausted). With a
// beforeEpoch hook installed but no horizon, epochs stay fixed — the
// runner must assume the hook could inject into any cell. Nil removes
// the horizon. Call only between runs.
func (r *ParallelRunner) SetHorizon(fn func() Time) { r.horizon = fn }

// SetBeforeEpoch installs a hook called at the start of every epoch
// with the epoch bounds [start, end), after pending cross-shard
// messages have been delivered and before any shard runs. The hook runs
// single-threaded and may schedule directly on any kernel (replay
// feeders use it to inject the records falling inside the epoch). Nil
// removes the hook.
func (r *ParallelRunner) SetBeforeEpoch(fn func(start, end Time)) { r.beforeEpoch = fn }

// SetAfterEpoch installs a hook called single-threaded at the end of
// every epoch, after every shard has stopped at the barrier (the
// one-domain shard engine writes its buffered sinks through here). Nil
// removes the hook.
func (r *ParallelRunner) SetAfterEpoch(fn func()) { r.afterEpoch = fn }

// SetEpochObserver installs a profiling hook invoked single-threaded at
// the end of every epoch with that epoch's phase timings. Nil removes
// the hook; with no observer installed the epoch loop takes no
// timestamps and allocates nothing extra.
func (r *ParallelRunner) SetEpochObserver(fn func(EpochStats)) { r.observer = fn }

// Close stops the persistent shard worker goroutines (no-ops if they
// were never started or are already stopped). After Close the runner
// must not be advanced in parallel mode again; the engine calls it from
// its own Close.
func (r *ParallelRunner) Close() {
	if r.closed {
		return
	}
	r.closed = true
	for _, ch := range r.work {
		close(ch)
	}
}

// startWorkers launches one persistent goroutine per kernel. Each parks
// on its channel between epochs and advances its kernel to curEnd when
// poked — the channel send/receive pair publishes curEnd and timed, and
// wg.Done publishes the kernel state and advanceNS back to the driver.
// A warm-up round (the warm flag makes workers skip their kernels)
// pushes one no-op poke through every worker so the runtime structures
// backing the barrier — park/unpark records, semaphore entries — are
// allocated here at construction rather than inside the first epoch,
// keeping steady-state epochs allocation-free.
func (r *ParallelRunner) startWorkers() {
	r.work = make([]chan struct{}, len(r.kernels))
	for i := range r.kernels {
		ch := make(chan struct{}, 1)
		r.work[i] = ch
		i, k := i, r.kernels[i]
		go func() {
			for range ch {
				if r.warm {
					r.wg.Done()
					continue
				}
				if r.timed {
					t0 := time.Now()
					k.RunUntil(r.curEnd)
					r.advanceNS[i] = time.Since(t0).Nanoseconds()
				} else {
					k.RunUntil(r.curEnd)
				}
				r.wg.Done()
			}
		}()
	}
	r.warm = true
	r.wg.Add(len(r.kernels))
	for _, ch := range r.work {
		ch <- struct{}{}
	}
	r.wg.Wait()
	r.warm = false
}

// pendingMsgs counts cross-shard messages queued for the next exchange.
func (r *ParallelRunner) pendingMsgs() int {
	n := 0
	for i := range r.outbox {
		n += len(r.outbox[i].live)
	}
	return n
}

// Send schedules fn to run on shard dst's kernel at time at. During an
// epoch it may only be called from shard src's goroutine; at must be at
// least the sending shard's current time plus the lookahead, or the
// barrier delivery will panic. Delivery happens at the next epoch
// boundary, merged deterministically by (src, send order).
func (r *ParallelRunner) Send(src, dst int, at Time, fn Event) {
	if fn == nil {
		panic("sim: Send nil event")
	}
	c := &r.outbox[src*len(r.kernels)+dst]
	c.live = append(c.live, crossMsg{at: at, fn: fn})
}

// exchange drains every outbox into the destination kernels in (src,
// send order) — the deterministic merge the equivalence proof rests on.
// Each cell's live slice is swapped against its drained spare rather
// than reallocated: capacity is reused across epochs, and the slice
// being delivered is never the one the next epoch appends to. Drained
// slots are cleared so the rings don't pin delivered closures.
func (r *ParallelRunner) exchange() {
	n := len(r.kernels)
	for idx := range r.outbox {
		c := &r.outbox[idx]
		msgs := c.live
		c.live, c.spare = c.spare[:0], msgs
		if len(msgs) == 0 {
			continue
		}
		k := r.kernels[idx%n]
		for i := range msgs {
			m := &msgs[i]
			if m.at < k.Now() {
				panic(fmt.Sprintf(
					"sim: cross-shard message %d->%d at %v violates lookahead (destination clock %v)",
					idx/n, idx%n, m.at, k.Now()))
			}
			k.At(m.at, m.fn)
			*m = crossMsg{}
		}
	}
}

// epochEnd picks the next epoch's end: one lookahead cell by default,
// or — when adaptive lookahead is enabled and every injection source is
// covered by the horizon — as many whole cells as provably hold no
// work. The pending-work horizon h is the minimum over every kernel's
// next event and the injection horizon; since nothing can execute
// before h, and a cross-shard send made at time t is delivered at
// t+lookahead or later, every cell strictly before h's cell is a no-op
// in the fixed-lookahead oracle too: same events, same merge order,
// same bytes. The end always lands on the now+k*lookahead grid, which
// is what keeps widened and fixed runs on the same epoch anchors.
func (r *ParallelRunner) epochEnd(deadline Time) Time {
	end := r.now.Add(r.lookahead)
	if r.adaptMax > 1 && (r.beforeEpoch == nil || r.horizon != nil) {
		h := End
		if r.horizon != nil {
			h = r.horizon()
		}
		for _, k := range r.kernels {
			if t, ok := k.NextEvent(); ok && t < h {
				h = t
			}
		}
		if h == End {
			// No pending work anywhere: a single epoch to the deadline.
			end = deadline
		} else if h > r.now {
			cells := int64(h-r.now) / int64(r.lookahead)
			if cells >= int64(r.adaptMax) {
				cells = int64(r.adaptMax) - 1
			}
			end = r.now + Time(cells+1)*Time(r.lookahead)
		}
	}
	if end > deadline || end < r.now {
		end = deadline
	}
	return end
}

// advance runs every kernel to end — in shard order on this thread in
// sequential mode or with a single kernel, on the persistent shard
// workers otherwise.
func (r *ParallelRunner) advance(end Time) {
	if r.sequential || len(r.kernels) == 1 {
		if r.timed {
			for i, k := range r.kernels {
				t0 := time.Now()
				k.RunUntil(end)
				r.advanceNS[i] = time.Since(t0).Nanoseconds()
			}
			return
		}
		for _, k := range r.kernels {
			k.RunUntil(end)
		}
		return
	}
	r.curEnd = end
	r.wg.Add(len(r.kernels))
	for _, ch := range r.work {
		ch <- struct{}{}
	}
	r.wg.Wait()
}

// RunUntil advances every kernel to deadline, exchanging cross-shard
// messages at each barrier. On return, every kernel's clock reads
// exactly deadline (when deadline is ahead of the runner clock) and all
// messages sent by completed epochs have been delivered.
func (r *ParallelRunner) RunUntil(deadline Time) { r.RunEpochs(deadline, nil) }

// RunEpochs advances like RunUntil but consults stop (when non-nil)
// after each completed epoch and returns once it reports true. Replay
// drivers hand the barrier a wide deadline and stop at the first
// barrier after source exhaustion, which keeps the final clock
// identical across fixed, adaptive, and cluster execution.
func (r *ParallelRunner) RunEpochs(deadline Time, stop func() bool) {
	if r.observer != nil {
		r.runEpochsObserved(deadline, stop)
		return
	}
	for r.now < deadline {
		r.exchange()
		end := r.epochEnd(deadline)
		if r.beforeEpoch != nil {
			r.beforeEpoch(r.now, end)
		}
		r.advance(end)
		r.now = end
		r.epochSeq++
		if r.afterEpoch != nil {
			r.afterEpoch()
		}
		if stop != nil && stop() {
			break
		}
	}
	r.exchange()
}

// runEpochsObserved is RunEpochs with per-phase wall timing. Identical
// event execution — only timestamps are added around each phase and the
// observer is invoked at each barrier.
func (r *ParallelRunner) runEpochsObserved(deadline Time, stop func() bool) {
	r.timed = true
	defer func() { r.timed = false }()
	for r.now < deadline {
		epochT0 := time.Now()
		msgs := r.pendingMsgs()
		r.exchange()
		exchangeNS := time.Since(epochT0).Nanoseconds()
		end := r.epochEnd(deadline)
		start := r.now
		if r.beforeEpoch != nil {
			r.beforeEpoch(start, end)
		}
		r.advance(end)
		r.now = end
		r.epochSeq++
		slowest, maxAdv := 0, int64(0)
		for i, ns := range r.advanceNS {
			if ns > maxAdv {
				slowest, maxAdv = i, ns
			}
		}
		for i, ns := range r.advanceNS {
			r.waitNS[i] = maxAdv - ns
		}
		r.observer(EpochStats{
			Seq:           r.epochSeq,
			Start:         start,
			End:           end,
			WallNS:        time.Since(epochT0).Nanoseconds(),
			ExchangeNS:    exchangeNS,
			ExchangeMsgs:  msgs,
			AdvanceNS:     r.advanceNS,
			BarrierWaitNS: r.waitNS,
			SlowestShard:  slowest,
		})
		if r.afterEpoch != nil {
			r.afterEpoch()
		}
		if stop != nil && stop() {
			break
		}
	}
	r.exchange()
}

// RunFor is RunUntil(Now()+d).
func (r *ParallelRunner) RunFor(d time.Duration) { r.RunUntil(r.now.Add(d)) }
