package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// parallelHarness builds N kernels that each run a periodic local event
// writing to a per-shard log and, every third tick, send a message to
// the next shard to be logged there — enough cross-traffic to catch any
// merge-order or barrier bug.
type parallelHarness struct {
	r    *ParallelRunner
	logs []*strings.Builder
}

func newParallelHarness(n int, lookahead time.Duration) *parallelHarness {
	kernels := make([]*Kernel, n)
	logs := make([]*strings.Builder, n)
	for i := range kernels {
		kernels[i] = NewKernel(uint64(100 + i))
		logs[i] = &strings.Builder{}
	}
	h := &parallelHarness{logs: logs}
	var local *Local[Event]
	h.r, local = newEventRunner(kernels, lookahead)
	for i := range kernels {
		i := i
		k := kernels[i]
		rng := k.Stream("load")
		tick := 0
		var step Event
		step = func(now Time) {
			tick++
			fmt.Fprintf(logs[i], "s%d local t=%v r=%d\n", i, now, rng.Uint64n(1000))
			if tick%3 == 0 {
				dst := (i + 1) % n
				src := i
				at := now.Add(lookahead)
				local.Send(src, dst, at, func(then Time) {
					fmt.Fprintf(logs[dst], "s%d recv from s%d t=%v\n", dst, src, then)
				})
			}
			k.After(137*time.Microsecond, step)
		}
		k.After(0, step)
	}
	return h
}

// newEventRunner is NewParallelRunner with the Local it drives in hand,
// for the tests to send their Events on.
func newEventRunner(kernels []*Kernel, lookahead time.Duration) (*ParallelRunner, *Local[Event]) {
	local := NewLocal(kernels, func(dst int, at Time, fn Event) { kernels[dst].At(at, fn) })
	r := NewRunner(local, 0, lookahead)
	r.Align()
	return r, local
}

func (h *parallelHarness) dump() string {
	var b strings.Builder
	for i, l := range h.logs {
		fmt.Fprintf(&b, "== shard %d ==\n%s", i, l.String())
	}
	return b.String()
}

func TestParallelRunnerMatchesSequential(t *testing.T) {
	const n = 4
	la := time.Millisecond
	run := func(seq bool) string {
		h := newParallelHarness(n, la)
		h.r.SetSequential(seq)
		h.r.RunUntil(Time(50 * time.Millisecond))
		return h.dump()
	}
	want := run(true)
	for trial := 0; trial < 3; trial++ {
		if got := run(false); got != want {
			t.Fatalf("trial %d: parallel log differs from sequential oracle\nseq:\n%s\npar:\n%s", trial, want, got)
		}
	}
	if want == "" {
		t.Fatal("harness produced no events")
	}
}

func TestParallelRunnerEpochBounds(t *testing.T) {
	kernels := []*Kernel{NewKernel(1), NewKernel(2)}
	r := NewParallelRunner(kernels, time.Millisecond)
	r.SetAdaptive(1)
	var got [][2]Time
	r.SetFeed(func(start, end Time) { got = append(got, [2]Time{start, end}) }, func() Time { return End })
	r.RunUntil(Time(2500 * time.Microsecond))
	want := [][2]Time{
		{0, Time(time.Millisecond)},
		{Time(time.Millisecond), Time(2 * time.Millisecond)},
		{Time(2 * time.Millisecond), Time(2500 * time.Microsecond)},
	}
	if len(got) != len(want) {
		t.Fatalf("epochs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("epoch %d = %v, want %v", i, got[i], want[i])
		}
	}
	for i, k := range kernels {
		if k.Now() != Time(2500*time.Microsecond) {
			t.Fatalf("kernel %d clock = %v, want 2.5ms", i, k.Now())
		}
	}
	if r.Now() != Time(2500*time.Microsecond) {
		t.Fatalf("runner clock = %v", r.Now())
	}
}

func TestParallelRunnerLookaheadViolationPanics(t *testing.T) {
	kernels := []*Kernel{NewKernel(1), NewKernel(2)}
	r, local := newEventRunner(kernels, time.Millisecond)
	r.RunUntil(Time(5 * time.Millisecond))
	// A message into the past of the destination shard must be rejected
	// loudly: silently reordering time would corrupt the simulation.
	local.Send(0, 1, Time(time.Millisecond), func(Time) {})
	defer func() {
		if recover() == nil {
			t.Fatal("expected lookahead-violation panic")
		}
	}()
	r.RunUntil(Time(6 * time.Millisecond))
}

func TestParallelRunnerAlignsClocks(t *testing.T) {
	a, b := NewKernel(1), NewKernel(2)
	fired := false
	a.RunUntil(Time(3 * time.Millisecond))
	b.At(Time(2*time.Millisecond), func(Time) { fired = true })
	r := NewParallelRunner([]*Kernel{a, b}, time.Millisecond)
	if r.Now() != Time(3*time.Millisecond) {
		t.Fatalf("runner clock = %v, want 3ms (latest kernel)", r.Now())
	}
	if !fired {
		t.Fatal("aligning should have run the lagging kernel's events")
	}
	if b.Now() != a.Now() {
		t.Fatalf("clocks not aligned: %v vs %v", a.Now(), b.Now())
	}
}

func TestParallelRunnerDeliversTailMessages(t *testing.T) {
	kernels := []*Kernel{NewKernel(1), NewKernel(2)}
	r, local := newEventRunner(kernels, time.Millisecond)
	// A message sent outside any epoch is delivered by the exchange at
	// the head of the next run.
	ran := false
	local.Send(0, 1, r.Now().Add(time.Millisecond), func(Time) { ran = true })
	r.RunFor(2 * time.Millisecond)
	if !ran {
		t.Fatal("pre-run Send not delivered")
	}
}

// scriptedTransport is a Transport with no shards behind it: a fixed
// next event, one message sent by every epoch, two units with fixed
// advance times, and a failure for any epoch ending past failAt.
type scriptedTransport struct {
	next, failAt Time
	pending      int
	advanced     []Time
}

func (s *scriptedTransport) Exchange() int {
	n := s.pending
	s.pending = 0
	return n
}

func (s *scriptedTransport) NextEvent() Time { return s.next }

func (s *scriptedTransport) Advance(end Time, timed bool) ([]int64, bool) {
	if end > s.failAt {
		return nil, false
	}
	s.advanced = append(s.advanced, end)
	s.pending = 1
	return []int64{1, 3}, true
}

// TestRunnerOverTransport: the one epoch loop over a transport it does
// not own. Epochs widen against the transport's next event, a message
// the exchange closing one run delivered is counted by the epoch that
// opens the next, the observer sees per-unit barrier waits, and a
// transport that fails to advance ends the run where it stands.
func TestRunnerOverTransport(t *testing.T) {
	ms := func(n int64) Time { return Time(n) * Time(time.Millisecond) }
	tr := &scriptedTransport{next: ms(5), failAt: ms(8)}
	r := NewRunner(tr, ms(1), time.Millisecond)
	r.SetAdaptive(64)
	var bounds [][2]Time
	var msgs []int
	var wait []int64
	r.SetEpochObserver(func(s EpochStats) {
		bounds = append(bounds, [2]Time{s.Start, s.End})
		msgs = append(msgs, s.ExchangeMsgs)
		if wait == nil {
			wait = append(wait, s.BarrierWaitNS...)
			wait = append(wait, int64(s.SlowestShard))
		}
	})
	r.RunUntil(ms(3))
	r.RunUntil(ms(20))

	wantBounds := [][2]Time{{ms(1), ms(3)}, {ms(3), ms(6)}, {ms(6), ms(7)}, {ms(7), ms(8)}}
	if fmt.Sprint(bounds) != fmt.Sprint(wantBounds) {
		t.Errorf("epochs = %v, want %v", bounds, wantBounds)
	}
	if fmt.Sprint(msgs) != fmt.Sprint([]int{0, 1, 1, 1}) {
		t.Errorf("exchanged messages per epoch = %v, want [0 1 1 1]", msgs)
	}
	if fmt.Sprint(wait) != fmt.Sprint([]int64{2, 0, 1}) {
		t.Errorf("barrier waits and slowest unit = %v, want [2 0 1]", wait)
	}
	if r.Now() != ms(8) || r.Epochs() != 4 || len(tr.advanced) != 4 {
		t.Errorf("after the failed advance: clock %v, %d epochs, %d advances; want 8ms, 4, 4", r.Now(), r.Epochs(), len(tr.advanced))
	}
}

// goroutineHeader returns the calling goroutine's "goroutine N" stack
// header, its only stable identity.
func goroutineHeader() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Join(strings.Fields(string(buf))[:2], " ")
}

// TestOneKernelRunnerStartsNoWorker: a one-kernel runner has nothing to
// overlap, so it parks no goroutine at construction (an un-Closed
// default farm would pin it forever) and advances its kernel on the
// caller's goroutine whether or not epochs are set sequential.
func TestOneKernelRunnerStartsNoWorker(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel(1)
	r := NewParallelRunner([]*Kernel{k}, time.Millisecond)
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("one-kernel runner started %d goroutine(s)", after-before)
	}
	caller := goroutineHeader()
	for _, seq := range []bool{false, true} {
		r.SetSequential(seq)
		ran := ""
		k.After(0, func(Time) { ran = goroutineHeader() })
		r.RunFor(time.Millisecond)
		if ran != caller {
			t.Errorf("sequential=%v: event ran on %q, caller is %q", seq, ran, caller)
		}
	}
	if runtime.NumGoroutine() > before {
		t.Error("advancing a one-kernel runner started a goroutine")
	}
	r.Close()
}

// TestLocalCloseWaitsForWorkers: Close returns only once the shard
// goroutines have exited, so no worker's stack still holds the Local,
// and through it the kernels, when the caller drops it. On one P the
// waiter a worker wakes runs after that worker has returned, so the
// count is exact right after Close, without a sleep or a poll.
func TestLocalCloseWaitsForWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	before := runtime.NumGoroutine()
	local := NewLocal([]*Kernel{NewKernel(1), NewKernel(2)}, func(int, Time, int) {})
	if n := runtime.NumGoroutine() - before; n != 2 {
		t.Fatalf("%d shard goroutines for two kernels, want 2", n)
	}
	local.Close()
	if n := runtime.NumGoroutine() - before; n != 0 {
		t.Errorf("%d shard goroutines still running when Close returned", n)
	}
}

// TestLocalHostedElsewhere: a nil kernel is a shard another process
// hosts. Its row carries what a driver sends for it between epochs,
// merged with the hosted rows in (source, send order); a message not yet
// exchanged is pending work; and no clock, advance or goroutine is its.
func TestLocalHostedElsewhere(t *testing.T) {
	ms := func(n int64) Time { return Time(n) * Time(time.Millisecond) }
	before := runtime.NumGoroutine()
	k0, k2 := NewKernel(1), NewKernel(2)
	var got []string
	local := NewLocal([]*Kernel{k0, nil, k2}, func(dst int, at Time, m string) {
		got = append(got, fmt.Sprintf("%s>%d@%v", m, dst, at))
	})
	defer local.Close()
	if n := runtime.NumGoroutine() - before; n != 2 {
		t.Fatalf("%d shard goroutines for two hosted kernels, want 2", n)
	}
	k0.At(ms(1), func(now Time) { local.Send(0, 2, now+ms(2), "a") })
	k2.At(ms(1), func(now Time) { local.Send(2, 0, now+ms(2), "c") })
	for _, seq := range []bool{false, true} {
		local.SetSequential(seq)
		local.Advance(ms(2), false)
		local.Advance(ms(2), true)
	}
	if now := local.Now(); now != ms(2) {
		t.Fatalf("Now = %v, want 2ms", now)
	}
	if next := local.NextEvent(); next != ms(3) {
		t.Fatalf("NextEvent = %v with two messages due at 3ms unexchanged", next)
	}
	local.Send(1, 2, ms(4), "b1")
	local.Send(1, 0, ms(2), "b2")
	local.Send(1, 2, ms(5), "b3")
	if next := local.NextEvent(); next != ms(2) {
		t.Fatalf("NextEvent = %v with a message due at 2ms unexchanged", next)
	}
	if n := local.Exchange(); n != 5 {
		t.Fatalf("Exchange delivered %d messages, want 5", n)
	}
	want := "[a>2@3ms b2>0@2ms b1>2@4ms b3>2@5ms c>0@3ms]"
	if fmt.Sprint(got) != want {
		t.Errorf("delivered %v, want %s", got, want)
	}
	if next := local.NextEvent(); next != End {
		t.Errorf("NextEvent = %v after the exchange, want End", next)
	}
}
