package sim

// Conservative parallel discrete-event execution over a set of shards.
//
// ParallelRunner advances N shards in lockstep epochs of length
// `lookahead`, the classic conservative-synchronization scheme: during
// an epoch every shard runs its own events and may not touch any other
// shard's state; all cross-shard interaction is expressed as messages,
// which are delivered only at the epoch barrier, in a fixed (source
// index, send order) merge order. Because a message sent at time t is
// delivered no earlier than t + lookahead — and every epoch is at most
// lookahead long — a message can never land inside the epoch that
// produced it, so each shard's event stream is a pure function of the
// barrier-merged inputs and the run is byte-identical whether the
// epochs execute on goroutines, sequentially on one thread
// (SetSequential), or in other processes. That equivalence is what
// makes the parallel engine testable: the single-threaded mode is the
// oracle.
//
// The runner owns the one epoch loop in the tree; what moves between
// shards is a Transport's job. Local is the in-process one: its
// messages are data, handed at the barrier to the one deliver function
// its owner installed (NewParallelRunner's are Events, run on arrival).
// A cluster worker drives a Local directly, one Exchange and Advance per
// epoch frame, over every shard of the run: a nil kernel is a shard
// another process hosts, whose messages the worker Sends from its row.
// NewRunner takes any Transport — internal/cluster's coordinator is one,
// over TCP.
//
// # Adaptive lookahead
//
// SetAdaptive lets one epoch span several lookahead-sized cells when
// the runner can prove the extra barriers would have been no-ops. The
// widened window is derived purely from simulation state — the
// earliest pending event the transport reports plus the injection
// horizon installed with SetFeed — never from wall clock, so a
// widened run stays byte-identical to the fixed-lookahead oracle:
// epochs only ever end on the same lookahead grid, and a grid cell is
// skipped only when no event, no injection, and therefore no
// cross-shard send could have occurred in it. See DESIGN.md "Epoch
// exchange" for the full argument.
//
// The control methods (RunUntil, RunEpochs, RunFor, SetFeed,
// and Local.Send from outside an epoch) are for a single driver
// goroutine. During an epoch, Local.Send(src, ...) may only be called
// from shard src's goroutine — the per-pair outboxes are sharded by
// source exactly so that rule needs no locks.

import (
	"fmt"
	"slices"
	"sync"
	"time"
)

// Transport moves an epoch round's data between the runner and its
// shards. The runner calls it from its driver goroutine only, once per
// method per epoch, in the order Exchange, NextEvent, Advance.
type Transport interface {
	// Exchange delivers the cross-shard messages pending at the barrier
	// into their destination shards and returns how many it delivered.
	Exchange() int
	// NextEvent reports the earliest pending event across every shard,
	// delivered messages included, or End when nothing is pending.
	NextEvent() Time
	// Advance runs every shard to end. When timed, advanceNS[i] is unit
	// i's wall-clock advance time (a unit is a kernel in process, a
	// worker in a cluster) in a slice the transport reuses. ok is false
	// when the shards could not be advanced: the run stops there.
	Advance(end Time, timed bool) (advanceNS []int64, ok bool)
}

// message is one cross-shard message, due at its destination at at.
type message[M any] struct {
	at Time
	m  M
}

// outCell is one (src,dst) outbox: a live slice the source appends to
// during the epoch and a spare the barrier swaps in after draining, so
// capacity is reused forever and a draining slice is never appended to.
type outCell[M any] struct {
	live  []message[M]
	spare []message[M]
}

// kernelSet is what the runner's in-process controls (Align,
// SetSequential, Close) reach of a Local, whatever its message type.
type kernelSet interface {
	Transport
	Now() Time
	SetSequential(seq bool)
	Close()
}

// ParallelRunner is the epoch driver: it synchronizes a Transport's
// shards with conservative epoch barriers.
type ParallelRunner struct {
	t         Transport
	local     kernelSet // t when it is a Local, else nil
	lookahead time.Duration
	now       Time

	// feed, when set, injects work at the start of every epoch, and
	// next reports the earliest simulated time it may still schedule
	// work at (the replay feeder's read-ahead).
	feed       func(start, end Time)
	next       func() Time
	afterEpoch func()

	// adaptMax bounds how many lookahead cells one epoch may span
	// (1 = fixed epochs).
	adaptMax int

	// delivered counts messages Exchange has delivered that no epoch has
	// reported yet: the exchange closing a run delivers into the epoch
	// that opens the next one.
	delivered int
	epochSeq  uint64
	observer  func(EpochStats)
	waitNS    []int64
}

// EpochStats is one epoch's wall-clock phase breakdown, reported to the
// observer installed with SetEpochObserver. Start/End are the epoch's
// simulated-time bounds; everything else is wall-clock. AdvanceNS[i] is
// unit i's advance duration and BarrierWaitNS[i] the time it then idled
// waiting for the slowest unit (max advance minus its own).
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

// NewParallelRunner builds a runner over in-process kernels with the
// given lookahead (the minimum cross-shard latency; must be positive)
// whose messages are Events, each run on its destination at its time.
// The runner's clock starts at the latest kernel clock and the lagging
// kernels are run forward to it, so pre-run setup that advanced the
// kernels unevenly is tolerated.
func NewParallelRunner(kernels []*Kernel, lookahead time.Duration) *ParallelRunner {
	r := NewRunner(NewLocal(kernels, func(dst int, at Time, fn Event) {
		kernels[dst].At(at, fn)
	}), 0, lookahead)
	r.Align()
	return r
}

// defaultAdaptive is how many lookahead cells one epoch may span unless
// SetAdaptive says otherwise: the engine and the cluster coordinator
// both run on it, so their epoch grids agree.
const defaultAdaptive = 64

// NewRunner builds a runner that drives t's shards from clock now with
// the given lookahead (must be positive). An epoch may span up to
// defaultAdaptive cells until SetAdaptive says otherwise. When t is a
// Local, the in-process controls (Align, SetSequential, Close) act on
// its kernels.
func NewRunner(t Transport, now Time, lookahead time.Duration) *ParallelRunner {
	if lookahead <= 0 {
		panic("sim: ParallelRunner with non-positive lookahead")
	}
	local, _ := t.(kernelSet)
	return &ParallelRunner{t: t, local: local, lookahead: lookahead, now: now, adaptMax: defaultAdaptive}
}

// Align advances the runner clock to the latest kernel clock and runs
// every lagging kernel forward to it. Call it after advancing kernels
// outside the runner's control. In-process runners only.
func (r *ParallelRunner) Align() {
	r.now = max(r.now, r.local.Now())
	r.local.Advance(r.now, false)
}

// Now returns the runner clock: every shard has run to exactly this
// time whenever no epoch is in flight.
func (r *ParallelRunner) Now() Time { return r.now }

// Lookahead returns the epoch grid cell length (the minimum cross-shard
// latency; an adaptive epoch may span several cells).
func (r *ParallelRunner) Lookahead() time.Duration { return r.lookahead }

// Epochs returns the number of epochs completed so far (the adaptive
// lookahead tests assert a widened run pays fewer barriers).
func (r *ParallelRunner) Epochs() uint64 { return r.epochSeq }

// SetSequential switches epoch execution to a single thread in shard
// order — the determinism oracle the equivalence tests compare against.
// In-process runners only.
func (r *ParallelRunner) SetSequential(seq bool) { r.local.SetSequential(seq) }

// SetAdaptive bounds adaptive lookahead: one epoch may span up to
// maxCells lookahead-sized grid cells when the pending-event horizon
// proves the skipped barriers would have been no-ops. maxCells <= 1
// pins fixed epochs. Call only between runs.
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

// SetFeed installs an injector: feed is called at the start of every
// epoch with the epoch bounds [start, end), after pending cross-shard
// messages have been delivered and before any shard runs. It runs
// single-threaded and may schedule directly on any shard (the replay
// feeder injects the records falling inside the epoch). next is its
// injection horizon for adaptive lookahead: the earliest simulated time
// feed may still schedule work at, End when its source is exhausted.
// next must be set whenever feed is; SetFeed(nil, nil) removes both.
// Call only between runs.
func (r *ParallelRunner) SetFeed(feed func(start, end Time), next func() Time) {
	r.feed, r.next = feed, next
}

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

// Close stops the persistent shard worker goroutines of an in-process
// runner (a no-op if they were never started, are already stopped, or
// the shards live elsewhere); it advances on the calling goroutine
// after. The engine calls it from its own Close.
func (r *ParallelRunner) Close() {
	if r.local != nil {
		r.local.Close()
	}
}

// epochEnd picks the next epoch's end: one lookahead cell, or — when
// adaptive lookahead is enabled — as many whole cells as provably hold
// no work. The pending-work horizon h is the minimum over the transport's
// next event and the injection horizon; since nothing can execute
// before h, and a cross-shard send made at time t is delivered at
// t+lookahead or later, every cell strictly before h's cell is a no-op
// in the fixed-lookahead oracle too: same events, same merge order,
// same bytes. The end always lands on the now+k*lookahead grid, which
// is what keeps widened and fixed runs on the same epoch anchors.
func (r *ParallelRunner) epochEnd(deadline Time) Time {
	end := r.now.Add(r.lookahead)
	if r.adaptMax > 1 {
		h := r.t.NextEvent()
		if r.next != nil {
			h = min(h, r.next())
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

// RunUntil advances every shard to deadline, exchanging cross-shard
// messages at each barrier. On return, every shard's clock reads
// exactly deadline (when deadline is ahead of the runner clock) and all
// messages sent by completed epochs have been delivered.
func (r *ParallelRunner) RunUntil(deadline Time) { r.RunEpochs(deadline, nil) }

// RunEpochs advances like RunUntil but consults stop (when non-nil)
// after each completed epoch and returns once it reports true. Replay
// drivers hand the barrier a wide deadline and stop at the first
// barrier after source exhaustion, which keeps the final clock
// identical across fixed, adaptive, and cluster execution. A transport
// that fails to advance ends the run where it stands.
func (r *ParallelRunner) RunEpochs(deadline Time, stop func() bool) {
	timed := r.observer != nil
	for r.now < deadline {
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		r.delivered += r.t.Exchange()
		var exchangeNS int64
		if timed {
			exchangeNS = time.Since(t0).Nanoseconds()
		}
		start, end := r.now, r.epochEnd(deadline)
		if r.feed != nil {
			r.feed(start, end)
		}
		adv, ok := r.t.Advance(end, timed)
		if !ok {
			return
		}
		r.now = end
		r.epochSeq++
		msgs := r.delivered
		r.delivered = 0
		if timed {
			// A unit's barrier idle is its lag behind the slowest one.
			maxAdv := slices.Max(adv)
			r.waitNS = r.waitNS[:0]
			for _, ns := range adv {
				r.waitNS = append(r.waitNS, maxAdv-ns)
			}
			r.observer(EpochStats{Seq: r.epochSeq, Start: start, End: end, WallNS: time.Since(t0).Nanoseconds(),
				ExchangeNS: exchangeNS, ExchangeMsgs: msgs, AdvanceNS: adv, BarrierWaitNS: r.waitNS,
				SlowestShard: slices.Index(adv, maxAdv)})
		}
		if r.afterEpoch != nil {
			r.afterEpoch()
		}
		if stop != nil && stop() {
			break
		}
	}
	r.delivered += r.t.Exchange()
}

// RunFor is RunUntil(Now()+d).
func (r *ParallelRunner) RunFor(d time.Duration) { r.RunUntil(r.now.Add(d)) }

// Local is the Transport over this process's kernels: outbox rings of
// messages exchanged at the barrier, and one persistent goroutine per
// hosted kernel (none with a single one) advancing it in parallel mode.
// A nil kernel is a shard hosted elsewhere: only its row of outbox cells
// is used, by a driver that Sends its messages between epochs. Nothing
// in it allocates per epoch. Its methods are for one driver goroutine,
// except Send (see there).
type Local[M any] struct {
	kernels []*Kernel
	hosted  []int // indices of the non-nil kernels, ascending
	deliver func(dst int, at Time, m M)

	// outbox holds the n*n (src,dst) cells in src-major order — cell
	// (src,dst) lives at index src*n+dst, so iterating the flat slice
	// reproduces the (source index, send order) merge the equivalence
	// proof rests on. Only shard src's goroutine appends to src's row;
	// the barrier (WaitGroup) orders those appends before the exchange
	// reads them.
	outbox     []outCell[M]
	sequential bool

	// Persistent shard workers: one goroutine per hosted kernel, parked
	// on its channel between epochs, so an epoch costs n channel sends
	// and one WaitGroup wait instead of n goroutine spawns. A one-kernel
	// transport has none: there is nothing to overlap, so its kernel
	// advances on the caller's goroutine in either mode. curEnd and
	// timed are written by the driver before the sends (the channel
	// send / receive pair orders them); advanceNS[i] is written only by
	// kernel i's worker during an epoch and read by the driver after
	// wg.Wait. exited counts the workers still running: Close waits for
	// it, because a worker's stack holds the Local (and through it
	// whatever the kernels reach) until its goroutine returns.
	work      []chan struct{}
	wg        sync.WaitGroup
	exited    sync.WaitGroup
	curEnd    Time
	timed     bool
	warm      bool
	advanceNS []int64
	closed    bool
}

// NewLocal builds the in-process transport over kernels (at least one
// non-nil; nil ones are hosted elsewhere), in parallel mode, whose
// Exchange hands each message to deliver. Its shard goroutines start
// (and warm up) here rather than lazily at the first epoch:
// construction is the one place their setup cost can't land inside a
// measured run. Sequential mode leaves them parked; Close stops them
// either way.
func NewLocal[M any](kernels []*Kernel, deliver func(dst int, at Time, m M)) *Local[M] {
	n := len(kernels)
	p := &Local[M]{kernels: kernels, deliver: deliver, outbox: make([]outCell[M], n*n), advanceNS: make([]int64, n)}
	for i, k := range kernels {
		if k != nil {
			p.hosted = append(p.hosted, i)
		}
	}
	if len(p.hosted) == 0 {
		panic("sim: Local with no kernels")
	}
	if len(p.hosted) > 1 {
		p.startWorkers()
	}
	return p
}

// SetSequential switches Advance to a single thread in kernel order —
// the determinism oracle; the bytes are the same either way.
func (p *Local[M]) SetSequential(seq bool) { p.sequential = seq }

// Now is the latest hosted kernel clock: the earliest time that may be
// scheduled on every kernel.
func (p *Local[M]) Now() Time {
	var now Time
	for _, i := range p.hosted {
		now = max(now, p.kernels[i].Now())
	}
	return now
}

// Close stops the persistent shard goroutines and returns once they
// have exited (a no-op if there are none or they are already stopped).
// Advance then runs on the caller's goroutine.
func (p *Local[M]) Close() {
	if !p.closed {
		p.closed = true
		for _, ch := range p.work {
			close(ch)
		}
		p.exited.Wait()
	}
}

// Send queues m for hosted kernel dst at time at. During an epoch it may
// only be called from kernel src's goroutine; between epochs the driver
// may send from any row, a hosted-elsewhere one included. at must be at
// least the destination's clock at the next Exchange, or the barrier
// delivery will panic. The next Exchange hands it to deliver, merged
// deterministically by (src, send order).
func (p *Local[M]) Send(src, dst int, at Time, m M) {
	c := &p.outbox[src*len(p.kernels)+dst]
	c.live = append(c.live, message[M]{at: at, m: m})
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
func (p *Local[M]) startWorkers() {
	p.work = make([]chan struct{}, len(p.hosted))
	p.exited.Add(len(p.hosted))
	for j, i := range p.hosted {
		ch := make(chan struct{}, 1)
		p.work[j] = ch
		go func() {
			defer p.exited.Done()
			for range ch {
				if !p.warm {
					p.run(i)
				}
				p.wg.Done()
			}
		}()
	}
	p.warm = true
	p.wg.Add(len(p.work))
	for _, ch := range p.work {
		ch <- struct{}{}
	}
	p.wg.Wait()
	p.warm = false
}

// run advances kernel i to curEnd, timing it when asked to.
func (p *Local[M]) run(i int) {
	if !p.timed {
		p.kernels[i].RunUntil(p.curEnd)
		return
	}
	t0 := time.Now()
	p.kernels[i].RunUntil(p.curEnd)
	p.advanceNS[i] = time.Since(t0).Nanoseconds()
}

// Exchange hands every queued message to deliver in (src, send order) —
// the deterministic merge the equivalence proof rests on. Each cell's
// live slice is swapped against its drained spare rather than
// reallocated: capacity is reused across epochs, and the slice being
// delivered is never the one the next epoch appends to. Drained slots
// are cleared so the rings don't pin delivered messages.
func (p *Local[M]) Exchange() int {
	n, delivered := len(p.kernels), 0
	for idx := range p.outbox {
		c := &p.outbox[idx]
		msgs := c.live
		c.live, c.spare = c.spare[:0], msgs
		if len(msgs) == 0 {
			continue
		}
		dst := idx % n
		k := p.kernels[dst]
		for _, m := range msgs {
			if m.at < k.Now() {
				panic(fmt.Sprintf(
					"sim: cross-shard message %d->%d at %v violates lookahead (destination clock %v)",
					idx/n, dst, m.at, k.Now()))
			}
			p.deliver(dst, m.at, m.m)
		}
		clear(msgs)
		delivered += len(msgs)
	}
	return delivered
}

// NextEvent is the earliest pending event over every hosted kernel and
// every message not yet exchanged: a cell's first message is its
// earliest, since a source's clock never runs backwards. Right after
// Exchange, every cell is empty.
func (p *Local[M]) NextEvent() Time {
	h := End
	for _, i := range p.hosted {
		if t, ok := p.kernels[i].NextEvent(); ok && t < h {
			h = t
		}
	}
	for idx := range p.outbox {
		if live := p.outbox[idx].live; len(live) > 0 {
			h = min(h, live[0].at)
		}
	}
	return h
}

// Advance runs every hosted kernel to end — in shard order on this
// thread in sequential mode, with a single kernel or once closed, on the
// persistent shard workers otherwise.
func (p *Local[M]) Advance(end Time, timed bool) ([]int64, bool) {
	p.curEnd, p.timed = end, timed
	if p.sequential || p.closed || p.work == nil {
		for _, i := range p.hosted {
			p.run(i)
		}
		return p.advanceNS, true
	}
	p.wg.Add(len(p.work))
	for _, ch := range p.work {
		ch <- struct{}{}
	}
	p.wg.Wait()
	return p.advanceNS, true
}
