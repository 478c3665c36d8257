package sim

import "time"

// laneEvent is one entry of a Lane: the same (at, seq) ordering key a
// heap entry carries, beside the callback. There is no item behind it,
// so a lane event cannot be cancelled and costs the free list nothing.
type laneEvent struct {
	at  Time
	seq uint64
	fn  Event
}

// Lane is a FIFO of pending events owned by one Kernel, for a caller
// whose events are born in firing order: a time-sorted feed, a link of
// constant latency. What is already in order is appended, not sorted —
// an append and a pop are O(1) where the heap pays O(log n) each way.
//
// The firing order is unchanged. A lane event draws its seq from the
// kernel's one counter at the moment it is scheduled, exactly as At
// does, and the kernel fires the minimum (at, seq) over the heap's top
// and every lane's head; each lane is sorted on that key, so the merge
// yields the same total order a heap holding all of the events would.
//
// Correctness never rests on the caller's promise: an append whose time
// is behind the lane's newest event goes to the heap instead.
type Lane struct {
	k    *Kernel
	ring []laneEvent // len is zero or a power of two
	head int         // index of the oldest event
	n    int         // events queued
	last Time        // firing time of the newest event ever appended
}

// NewLane returns an empty lane whose events fire on k.
func (k *Kernel) NewLane() *Lane {
	l := &Lane{k: k}
	k.lanes = append(k.lanes, l)
	return l
}

// At schedules fn to run at the absolute time at, like Kernel.At but
// without a Timer: a lane event cannot be stopped.
func (l *Lane) At(at Time, fn Event) {
	k := l.k
	// Behind the lane's newest event: the heap sorts it. A time in the
	// past or a nil fn goes the same way, for At's panic.
	if at < l.last || at < k.now || fn == nil {
		k.At(at, fn)
		return
	}
	if l.n == len(l.ring) {
		l.grow()
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = laneEvent{at: at, seq: k.seq, fn: fn}
	k.seq++
	l.n++
	l.last = at
}

// After schedules fn to run d from now; negative d means "immediately",
// as for Kernel.After.
func (l *Lane) After(d time.Duration, fn Event) {
	if d < 0 {
		d = 0
	}
	l.At(l.k.now.Add(d), fn)
}

// grow doubles the ring, oldest event first.
func (l *Lane) grow() {
	ring := make([]laneEvent, max(2*len(l.ring), 64))
	for i := 0; i < l.n; i++ {
		ring[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
	}
	l.ring, l.head = ring, 0
}

// pop removes the oldest event. The slot's fn is cleared so the ring
// never keeps a closure (and its captures) alive.
func (l *Lane) pop() Event {
	e := &l.ring[l.head]
	fn := e.fn
	e.fn = nil
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	return fn
}
