package sim

import (
	"testing"
	"time"
)

// laneFired is one line of a lane script's firing log: when an event
// ran and the seq it was scheduled under.
type laneFired struct {
	at  Time
	seq uint64
}

// laneScriptStats says what a script run exercised on the lanes kernel.
type laneScriptStats struct {
	appended int // events a lane kept
	fellBack int // lane appends behind the lane's tail, sent to the heap
	stopped  int // Timer.Stop calls that cancelled a pending event
}

// laneScript runs the schedule that data encodes on a fresh kernel and
// returns the (at, seq) firing log. With lanes set, three kinds of event
// go through three Lanes; without, the same calls go to Kernel.At — the
// heap-only reference. Every fired event reads more of data to decide
// what it schedules from inside its callback, so the two runs make the
// same calls exactly as long as they fire in the same order.
//
// Per operation, two bytes (op, arg); op&7 selects:
//
//	0..2  lane op at now + that lane's constant latency (0, 3 or 5 ticks:
//	      in order by construction, the first a same-instant tie)
//	3     lane arg%3 at now + arg>>2 ticks (any order: may fall back)
//	4, 5  heap timer at now + arg>>2 ticks, kept for a later Stop
//	6     Stop the kept timer arg picks
//	7     heap timer at now (a same-instant tie with the lanes)
func laneScript(t testing.TB, data []byte, lanes bool) ([]laneFired, uint64, laneScriptStats) {
	const tick = Time(time.Microsecond)
	latency := [3]Time{0, 3 * tick, 5 * tick}
	k := NewKernel(1)
	var ls [3]*Lane
	if lanes {
		for i := range ls {
			ls[i] = k.NewLane()
		}
	}
	var (
		log    []laneFired
		stats  laneScriptStats
		timers []Timer
		spawn  func(n int)
	)
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	event := func() Event {
		seq := k.seq // the seq the schedule call about to be made assigns
		return func(now Time) {
			log = append(log, laneFired{now, seq})
			spawn(int(next() & 3))
		}
	}
	viaLane := func(i int, at Time) {
		if !lanes {
			k.At(at, event())
			return
		}
		l := ls[i]
		behind, heapLen, n := at < l.last, len(k.queue), l.n
		l.At(at, event())
		switch {
		case behind && (len(k.queue) != heapLen+1 || l.n != n):
			t.Fatalf("append at %v behind the lane's tail %v did not fall back to the heap", at, l.last)
		case behind:
			stats.fellBack++
		case l.n != n+1 || len(k.queue) != heapLen:
			t.Fatalf("in-order append at %v (tail %v) did not stay in the lane", at, l.last)
		default:
			stats.appended++
		}
	}
	spawn = func(n int) {
		for ; n > 0 && len(data) > 0; n-- {
			op, arg := next(), next()
			switch kind := int(op & 7); kind {
			case 0, 1, 2:
				viaLane(kind, k.now+latency[kind])
			case 3:
				viaLane(int(arg%3), k.now+Time(arg>>2)*tick)
			case 4, 5:
				timers = append(timers, k.At(k.now+Time(arg>>2)*tick, event()))
			case 6:
				if len(timers) > 0 && timers[int(arg)%len(timers)].Stop() {
					stats.stopped++
				}
			case 7:
				k.At(k.now, event())
			}
		}
	}

	spawn(16)
	// Drive by Step and by RunUntil in turn, scheduling from outside an
	// event between calls as a replay feeder does between epochs.
	for i := 0; ; i++ {
		at, ok := k.NextEvent()
		if !ok {
			if len(data) == 0 {
				break
			}
			spawn(4)
			continue
		}
		if i%2 == 0 {
			k.Step()
		} else {
			k.RunUntil(at + Time(next()&7)*tick)
		}
		spawn(int(next() & 1))
	}
	if k.Pending() != 0 {
		t.Fatalf("drained kernel reports %d pending", k.Pending())
	}
	return log, k.Fired(), stats
}

// compareLaneScript runs one schedule on a lanes kernel and on the
// heap-only reference and requires identical firing logs.
func compareLaneScript(t testing.TB, data []byte) laneScriptStats {
	got, gotFired, stats := laneScript(t, data, true)
	want, wantFired, _ := laneScript(t, data, false)
	if gotFired != wantFired || len(got) != len(want) {
		t.Fatalf("lanes kernel fired %d events (log %d), heap-only fired %d (log %d)", gotFired, len(got), wantFired, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing %d: lanes kernel ran (%v, seq %d), heap-only ran (%v, seq %d)",
				i, got[i].at, got[i].seq, want[i].at, want[i].seq)
		}
	}
	for i := 1; i < len(got); i++ {
		if p, c := got[i-1], got[i]; c.at < p.at || c.at == p.at && c.seq < p.seq {
			t.Fatalf("firing %d (%v, seq %d) ran after (%v, seq %d)", i, c.at, c.seq, p.at, p.seq)
		}
	}
	return stats
}

func seededLaneScript(seed uint64) []byte {
	rng := NewRNG(seed)
	data := make([]byte, 8192)
	for i := range data {
		data[i] = byte(rng.Uint64n(256))
	}
	return data
}

// TestLanesFireInHeapOrder: the lanes change where an event waits, never
// when it fires. The same seeded schedule — same-instant ties, events
// scheduled from inside events, interleaved Timer.Stop, three lanes,
// out-of-order appends — fires the same (at, seq) sequence on a lanes
// kernel as on a heap-only one.
func TestLanesFireInHeapOrder(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		stats := compareLaneScript(t, seededLaneScript(seed))
		if stats.appended == 0 || stats.fellBack == 0 || stats.stopped == 0 {
			t.Fatalf("seed %d exercised too little: %+v", seed, stats)
		}
	}
}

func FuzzLaneOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 7, 0, 1, 0, 3, 0, 6, 0, 4, 9})
	f.Add(seededLaneScript(1)[:512])
	f.Fuzz(func(t *testing.T, data []byte) { compareLaneScript(t, data) })
}

// TestLaneSteadyStateAllocs: once the ring has grown to the lane's
// working depth, scheduling through it and firing allocate nothing.
func TestLaneSteadyStateAllocs(t *testing.T) {
	k := NewKernel(1)
	l := k.NewLane()
	fn := func(Time) {}
	for i := 0; i < 1000; i++ {
		l.After(time.Millisecond, fn)
	}
	allocs := testing.AllocsPerRun(5000, func() {
		l.After(time.Millisecond, fn)
		k.Step()
	})
	if allocs != 0 {
		t.Fatalf("lane schedule + step allocates %.1f times, want 0", allocs)
	}
	if k.Pending() != 1000 {
		t.Fatalf("Pending() = %d, want the 1000 the lane started with", k.Pending())
	}
}

// TestNextEventSeesLaneHead: an event waiting in a lane is as pending
// as one in the heap. The parallel runner's adaptive lookahead widens
// against NextEvent; a lane head it could not see would let an epoch run
// past an event.
func TestNextEventSeesLaneHead(t *testing.T) {
	k := NewKernel(1)
	l := k.NewLane()
	fired := Time(-1)
	l.At(Time(3*time.Millisecond), func(now Time) { fired = now })
	if at, ok := k.NextEvent(); !ok || at != Time(3*time.Millisecond) {
		t.Fatalf("NextEvent = %v,%v, want 3ms,true", at, ok)
	}
	if k.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", k.Pending())
	}
	k.RunUntil(Time(2 * time.Millisecond))
	if fired >= 0 || k.Now() != Time(2*time.Millisecond) {
		t.Fatalf("RunUntil(2ms) fired the 3ms lane event (at %v) or left the clock at %v", fired, k.Now())
	}
	// A later heap timer does not hide the lane's head.
	k.At(Time(4*time.Millisecond), func(Time) {})
	if at, ok := k.NextEvent(); !ok || at != Time(3*time.Millisecond) {
		t.Fatalf("NextEvent with a later heap timer = %v,%v, want 3ms,true", at, ok)
	}
	k.RunUntil(Time(3 * time.Millisecond))
	if fired != Time(3*time.Millisecond) {
		t.Fatalf("RunUntil(3ms) left the lane event unfired (fired = %v)", fired)
	}
	if k.Pending() != 1 || k.Fired() != 1 {
		t.Fatalf("Pending() = %d, Fired() = %d, want 1 and 1", k.Pending(), k.Fired())
	}
}

// benchPending is the depth the kernel benchmarks hold: about what one
// shard carries on a warm wire feed (a record, a downlink hop and an
// uplink hop per packet in flight, beside the idle timers).
const benchPending = 2048

// BenchmarkKernelHeap is schedule + step through the heap with
// benchPending timers waiting.
func BenchmarkKernelHeap(b *testing.B) {
	k := NewKernel(1)
	fn := func(Time) {}
	for i := 1; i <= benchPending; i++ {
		k.At(Time(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.After(benchPending, fn)
		k.Step()
	}
}

// BenchmarkKernelLane is the same work for events born in firing order:
// the same depth, every event through one lane.
func BenchmarkKernelLane(b *testing.B) {
	k := NewKernel(1)
	l := k.NewLane()
	fn := func(Time) {}
	for i := 1; i <= benchPending; i++ {
		l.At(Time(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.After(benchPending, fn)
		k.Step()
	}
}
