// Package sim provides a deterministic discrete-event simulation kernel:
// a virtual clock, an event queue (a binary heap of cancellable timers
// beside FIFO lanes for events scheduled already in firing order, merged
// on one ordering key), and seedable random-number streams.
//
// All Potemkin substrates that model time (the VMM, simulated links, the
// telescope feed, the worm epidemic) run on top of one Kernel. Determinism
// is a hard requirement: two runs with the same seed and the same sequence
// of Schedule calls produce identical event orders, which the test suite
// relies on.
//
// Several kernels advance together in conservative epochs: a
// ParallelRunner owns the epoch loop and a Transport moves each epoch's
// data. Local, the in-process transport, is the one way kernels advance
// in parallel; the shard engine drives it under a runner, and a cluster
// worker drives it directly over the shards it hosts (parallel.go).
package sim

import (
	"fmt"
	"math"
	"time"

	"potemkin/internal/free"
)

// Time is a point in virtual time, measured in nanoseconds from the start
// of the simulation. It is deliberately distinct from time.Time: simulated
// experiments must never consult the wall clock.
type Time int64

// Common reference points.
const (
	// Start is the beginning of virtual time.
	Start Time = 0
	// End is the largest representable virtual time.
	End Time = math.MaxInt64
)

// Add returns t advanced by d. It saturates at End instead of overflowing.
func (t Time) Add(d time.Duration) Time {
	s := t + Time(d)
	if d > 0 && s < t {
		return End
	}
	return s
}

// Sub returns the duration between t and u (t - u).
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Seconds returns the time as floating-point seconds since Start.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

// String formats the time as a duration since Start, e.g. "1m3.5s".
func (t Time) String() string {
	if t == End {
		return "end-of-time"
	}
	return time.Duration(t).String()
}

// Event is a scheduled callback. Callbacks run with the kernel clock set to
// their firing time and may schedule further events.
type Event func(now Time)

// item is a pending event. Its seq is what a Timer checks before
// cancelling, so a recycled item cannot be cancelled by a stale Timer.
type item struct {
	seq    uint64
	fn     Event
	cancel bool
}

// queued is an entry of the event heap: the ordering key (at, seq)
// inline beside the item, so a comparison loads no pointer. seq breaks
// ties so that events scheduled for the same instant fire in scheduling
// order, which keeps runs deterministic.
type queued struct {
	at  Time
	seq uint64
	it  *item
}

// eventHeap is a binary min-heap on (at, seq), a total order, so pop
// order does not depend on how the sifts are written. They are written
// out rather than driven through container/heap, whose interface costs a
// dynamic call and two pointer loads per comparison.
type eventHeap []queued

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e queued) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() queued {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	s[n] = queued{}
	s = s[:n]
	*h = s
	for i := 0; ; {
		least := i
		for c := 2*i + 1; c <= 2*i+2 && c < n; c++ {
			if s.less(c, least) {
				least = c
			}
		}
		if least == i {
			return top
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
}

// Kernel is a discrete-event scheduler. The zero value is not usable; call
// NewKernel. Kernel is not safe for concurrent use: simulations are
// single-threaded by design so they stay deterministic.
type Kernel struct {
	now     Time
	queue   eventHeap
	seq     uint64
	fired   uint64
	stopped bool
	seed    uint64
	// free recycles fired/cancelled heap items so steady-state
	// scheduling allocates nothing. Recycled items get a fresh seq, and
	// Timer carries the seq it was issued with, so a stale Timer can
	// never cancel the item's next occupant.
	free free.List[*item]
	// lanes hold the events scheduled through a Lane; next merges their
	// heads with the heap's top.
	lanes []*Lane
}

// NewKernel returns a kernel whose clock reads Start and whose random
// streams derive from seed.
func NewKernel(seed uint64) *Kernel {
	return &Kernel{seed: seed}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Seed returns the seed the kernel was created with.
func (k *Kernel) Seed() uint64 { return k.seed }

// Pending returns the number of events waiting in the heap and the
// lanes, including cancelled ones that have not yet been popped.
func (k *Kernel) Pending() int {
	n := len(k.queue)
	for _, l := range k.lanes {
		n += l.n
	}
	return n
}

// Fired returns the total number of events that have executed.
func (k *Kernel) Fired() uint64 { return k.fired }

// Timer identifies a scheduled event and allows cancelling it. It
// remembers the scheduling sequence number it was issued with: once the
// event has fired (or been cancelled) its heap item may be recycled for
// a later event, and the stale Timer then no-ops instead of cancelling
// the item's new occupant.
type Timer struct {
	it  *item
	seq uint64
}

// Stop cancels the timer. It is safe to call on an already-fired or
// already-stopped timer; it reports whether the event was still pending.
func (t Timer) Stop() bool {
	if t.it == nil || t.it.seq != t.seq || t.it.cancel || t.it.fn == nil {
		return false
	}
	t.it.cancel = true
	return true
}

// At schedules fn to run at the absolute time at. Scheduling in the past is
// a programming error and panics: silently reordering time would corrupt
// every experiment built on the kernel.
func (k *Kernel) At(at Time, fn Event) Timer {
	if at < k.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, k.now))
	}
	if fn == nil {
		panic("sim: schedule nil event")
	}
	it, ok := k.free.Get()
	if ok {
		it.seq, it.fn, it.cancel = k.seq, fn, false
	} else {
		it = &item{seq: k.seq, fn: fn}
	}
	k.seq++
	k.queue.push(queued{at: at, seq: it.seq, it: it})
	return Timer{it: it, seq: it.seq}
}

// recycle returns a popped heap item to the freelist. The fn reference
// is dropped so the freelist never keeps closures (and their captures)
// alive.
func (k *Kernel) recycle(it *item) {
	it.fn = nil
	it.cancel = false
	k.free.Put(it)
}

// After schedules fn to run d from now. Negative d means "immediately"
// (still queued, fired in scheduling order).
func (k *Kernel) After(d time.Duration, fn Event) Timer {
	if d < 0 {
		d = 0
	}
	return k.At(k.now.Add(d), fn)
}

// Every schedules fn to run now+d, then every d after that, until the
// returned Ticker is stopped. d must be positive.
func (k *Kernel) Every(d time.Duration, fn Event) *Ticker {
	if d <= 0 {
		panic("sim: Every with non-positive period")
	}
	t := &Ticker{k: k, period: d, fn: fn}
	t.tick = t.fire
	t.arm()
	return t
}

// Ticker re-arms an event periodically. Stop prevents future firings.
type Ticker struct {
	k       *Kernel
	period  time.Duration
	fn      Event
	tick    Event // t.fire, bound once so re-arming allocates nothing
	timer   Timer
	stopped bool
}

func (t *Ticker) arm() {
	// At the saturation boundary (virtual time pinned at End) a
	// re-armed ticker would fire at the same instant forever; stop
	// instead of spinning.
	if t.k.Now().Add(t.period) <= t.k.Now() {
		t.stopped = true
		return
	}
	t.timer = t.k.After(t.period, t.tick)
}

func (t *Ticker) fire(now Time) {
	if t.stopped {
		return
	}
	t.fn(now)
	if !t.stopped {
		t.arm()
	}
}

// Stop cancels the ticker. Safe to call multiple times.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.timer.Stop()
}

// Stop halts Run/RunUntil after the current event returns. Events already
// queued remain queued and would run if Run were called again.
func (k *Kernel) Stop() { k.stopped = true }

// next finds the earliest live event: the minimum (at, seq) over the
// heap's top and every lane's head. l is the lane holding it, nil when
// it is the heap's; ok is false when nothing is pending. Cancelled items
// met at the heap's top are dropped on the way.
func (k *Kernel) next() (l *Lane, at Time, ok bool) {
	var seq uint64
	for len(k.queue) > 0 {
		top := &k.queue[0]
		if top.it.cancel {
			k.recycle(k.queue.pop().it)
			continue
		}
		at, seq, ok = top.at, top.seq, true
		break
	}
	for _, c := range k.lanes {
		if c.n == 0 {
			continue
		}
		if e := &c.ring[c.head]; !ok || e.at < at || e.at == at && e.seq < seq {
			l, at, seq, ok = c, e.at, e.seq, true
		}
	}
	return l, at, ok
}

// fire runs the event next found, advancing the clock to its time.
func (k *Kernel) fire(l *Lane, at Time) {
	var fn Event
	if l != nil {
		fn = l.pop()
	} else {
		it := k.queue.pop().it
		fn = it.fn
		// Recycle before running: the item's seq only changes when At
		// reuses it, so a Timer held for this event still reports
		// "already fired" either way.
		k.recycle(it)
	}
	k.now = at
	k.fired++
	fn(at)
}

// Step executes the single earliest pending event, advancing the clock to
// its firing time. It reports whether an event ran (false if the queue was
// empty).
func (k *Kernel) Step() bool {
	l, at, ok := k.next()
	if ok {
		k.fire(l, at)
	}
	return ok
}

// Run executes events until the queue is empty or Stop is called.
func (k *Kernel) Run() {
	k.stopped = false
	for !k.stopped && k.Step() {
	}
}

// RunUntil executes events with firing time <= deadline, then sets the
// clock to deadline (if it is later than the last event). Events after the
// deadline stay queued.
func (k *Kernel) RunUntil(deadline Time) {
	k.stopped = false
	for !k.stopped {
		l, at, ok := k.next()
		if !ok || at > deadline {
			break
		}
		k.fire(l, at)
	}
	if k.now < deadline {
		k.now = deadline
	}
}

// RunFor is RunUntil(Now()+d).
func (k *Kernel) RunFor(d time.Duration) { k.RunUntil(k.now.Add(d)) }

// NextEvent reports the firing time of the earliest pending event, or
// false when the queue is empty. The parallel runner's adaptive
// lookahead consults it between epochs to bound how far the window may
// widen; like every Kernel method it is single-threaded.
func (k *Kernel) NextEvent() (Time, bool) {
	_, at, ok := k.next()
	return at, ok
}
