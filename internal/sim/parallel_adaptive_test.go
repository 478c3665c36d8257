package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// burstHarness schedules bursty work: each shard runs a burst of local
// events (with cross-shard sends) at each listed start time, separated
// by quiet gaps — exactly the shape adaptive lookahead exists for.
type burstHarness struct {
	r    *ParallelRunner
	logs []*strings.Builder
}

func newBurstHarness(n int, lookahead time.Duration, bursts []Time) *burstHarness {
	kernels := make([]*Kernel, n)
	logs := make([]*strings.Builder, n)
	for i := range kernels {
		kernels[i] = NewKernel(uint64(300 + i))
		logs[i] = &strings.Builder{}
	}
	h := &burstHarness{logs: logs}
	var local *Local[Event]
	h.r, local = newEventRunner(kernels, lookahead)
	for i := range kernels {
		i := i
		k := kernels[i]
		rng := k.Stream("burst")
		for _, at := range bursts {
			for j := 0; j < 5; j++ {
				j := j
				k.At(at.Add(time.Duration(j)*100*time.Microsecond), func(now Time) {
					fmt.Fprintf(logs[i], "s%d local t=%v r=%d\n", i, now, rng.Uint64n(1000))
					if j%2 == 0 {
						dst := (i + 1) % n
						local.Send(i, dst, now.Add(lookahead), func(then Time) {
							fmt.Fprintf(logs[dst], "s%d recv from s%d t=%v\n", dst, i, then)
						})
					}
				})
			}
		}
	}
	return h
}

func (h *burstHarness) dump() string {
	var b strings.Builder
	for i, l := range h.logs {
		fmt.Fprintf(&b, "== shard %d ==\n%s", i, l.String())
	}
	return b.String()
}

// TestAdaptiveMatchesFixed drives the bursty workload under every
// combination of {fixed, adaptive} x {sequential, parallel} and demands
// byte-identical logs — the determinism claim of adaptive lookahead —
// while the adaptive runs must pay strictly fewer epoch barriers for
// the quiet gaps.
func TestAdaptiveMatchesFixed(t *testing.T) {
	const n = 3
	la := time.Millisecond
	bursts := []Time{0, Time(20 * time.Millisecond), Time(60 * time.Millisecond)}
	deadline := Time(80 * time.Millisecond)
	run := func(adaptive int, seq bool) (string, uint64) {
		h := newBurstHarness(n, la, bursts)
		h.r.SetAdaptive(adaptive)
		h.r.SetSequential(seq)
		h.r.RunUntil(deadline)
		h.r.Close()
		return h.dump(), h.r.Epochs()
	}
	want, fixedEpochs := run(1, true)
	if want == "" {
		t.Fatal("harness produced no events")
	}
	var adaptiveEpochs uint64
	for _, cfg := range []struct {
		adaptive int
		seq      bool
	}{{1, false}, {64, true}, {64, false}} {
		got, epochs := run(cfg.adaptive, cfg.seq)
		if got != want {
			t.Fatalf("adaptive=%d seq=%v diverges from fixed oracle\nwant:\n%s\ngot:\n%s",
				cfg.adaptive, cfg.seq, want, got)
		}
		if cfg.adaptive > 1 {
			adaptiveEpochs = epochs
		}
	}
	if adaptiveEpochs >= fixedEpochs {
		t.Fatalf("adaptive paid %d epochs, fixed %d — widening never engaged", adaptiveEpochs, fixedEpochs)
	}
}

// TestAdaptiveWidensAndSnapsBack pins the exact epoch bounds of an
// adaptive run: the window widens across a quiet gap (bounded by the
// cell cap), snaps back to single cells around a cross-shard burst, and
// jumps to the deadline once nothing is pending. The bounds-recording
// feed injects nothing, so its horizon reports End.
func TestAdaptiveWidensAndSnapsBack(t *testing.T) {
	la := time.Millisecond
	k0, k1 := NewKernel(1), NewKernel(2)
	r, local := newEventRunner([]*Kernel{k0, k1}, la)
	r.SetAdaptive(8)

	crossAt := Time(0)
	k0.At(Time(500*time.Microsecond), func(now Time) {
		// Cross-shard burst out of the quiet stretch: lands at 10ms+la.
	})
	k0.At(Time(10*time.Millisecond), func(now Time) {
		local.Send(0, 1, now.Add(la), func(then Time) { crossAt = then })
	})

	var got [][2]Time
	r.SetFeed(func(start, end Time) { got = append(got, [2]Time{start, end}) }, func() Time { return End })
	deadline := Time(16 * time.Millisecond)
	r.RunUntil(deadline)

	ms := func(n int64) Time { return Time(n) * Time(time.Millisecond) }
	want := [][2]Time{
		{0, ms(1)},         // burst cell: event at 0.5ms
		{ms(1), ms(9)},     // widened, capped at 8 cells (next event 10ms)
		{ms(9), ms(11)},    // snaps to the cell holding the 10ms event
		{ms(11), ms(12)},   // cross message delivered at 11ms pins this cell
		{ms(12), deadline}, // drained: one epoch to the deadline
	}
	if len(got) != len(want) {
		t.Fatalf("epoch bounds = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("epoch %d = %v, want %v", i, got[i], want[i])
		}
	}
	if crossAt != ms(11) {
		t.Fatalf("cross message fired at %v, want 11ms", crossAt)
	}
}

// TestRunEpochsStops: the stop predicate ends the run at the first
// barrier after it turns true, leaving the clock on that barrier.
func TestRunEpochsStops(t *testing.T) {
	r := NewParallelRunner([]*Kernel{NewKernel(1), NewKernel(2)}, time.Millisecond)
	r.SetAdaptive(1)
	epochs := 0
	r.RunEpochs(Time(100*time.Millisecond), func() bool {
		epochs++
		return epochs >= 3
	})
	if r.Now() != Time(3*time.Millisecond) {
		t.Fatalf("clock = %v, want 3ms (stopped after 3 epochs)", r.Now())
	}
}

// TestExchangeRingNoAliasing is the barrier-swap property test: a
// message slice handed to the destination kernels must never alias the
// slice the next epoch appends into. Every message carries a sequence
// number unique within its source's stream, captured at Send time; if
// a ring were recycled while still live, a later epoch's append would
// overwrite an undelivered message and some sequence number would
// arrive twice or never. Runs in parallel mode so -race also checks
// the ring ownership handoff between shard goroutines and the barrier.
func TestExchangeRingNoAliasing(t *testing.T) {
	const n = 4
	la := time.Millisecond
	kernels := make([]*Kernel, n)
	for i := range kernels {
		kernels[i] = NewKernel(uint64(i + 1))
	}
	r, local := newEventRunner(kernels, la)
	defer r.Close()

	// Per-destination delivery channels: the delivering shard goroutine
	// pushes, the driver drains after the run. Per-source counters are
	// written only by their shard's goroutine (epoch isolation) and read
	// by the driver after the final barrier.
	recvCh := make([]chan int, n)
	for i := range recvCh {
		recvCh[i] = make(chan int, 1<<16)
	}
	sent := make([]int, n)
	for i := range kernels {
		i, k := i, kernels[i]
		tick := 0
		var step Event
		step = func(now Time) {
			tick++
			for dst := 0; dst < n; dst++ {
				if dst == i {
					continue
				}
				// Varying fan-out so ring lengths grow and shrink —
				// stale-capacity bugs hide in the steady state.
				for m := 0; m < (tick+dst)%3; m++ {
					seq := i<<24 | sent[i]
					sent[i]++
					dst := dst
					local.Send(i, dst, now.Add(la), func(Time) {
						recvCh[dst] <- seq
					})
				}
			}
			k.After(500*time.Microsecond, step)
		}
		k.At(0, step)
	}
	r.RunUntil(Time(30 * time.Millisecond))

	seen := make(map[int]bool)
	total := 0
	for i := 0; i < n; i++ {
	drain:
		for {
			select {
			case v := <-recvCh[i]:
				if seen[v] {
					t.Fatalf("dst %d received seq %x twice — ring aliased a live slice", i, v)
				}
				seen[v] = true
				total++
			default:
				break drain
			}
		}
	}
	// The final epoch's sends are scheduled past the deadline and never
	// fire, so delivered < sent by at most one epoch's worth.
	totalSent := 0
	for _, s := range sent {
		totalSent += s
	}
	if total == 0 || totalSent == 0 {
		t.Fatal("workload sent no cross-shard messages")
	}
	if total > totalSent {
		t.Fatalf("delivered %d messages but only %d were sent", total, totalSent)
	}
	if totalSent-total > 3*n*n {
		t.Fatalf("sent %d, delivered %d — more than a tail epoch of loss", totalSent, total)
	}
}

// TestExchangeRingSurvivesMutateAfterExchange: messages appended after
// a barrier must not disturb messages the barrier already handed to
// destination kernels but which have not yet fired (delivery time later
// in the next epoch). This is the mutate-after-exchange scenario from
// the ring ownership rules.
func TestExchangeRingSurvivesMutateAfterExchange(t *testing.T) {
	la := time.Millisecond
	kernels := []*Kernel{NewKernel(1), NewKernel(2)}
	r, local := newEventRunner(kernels, la)

	var fired []string
	// Epoch [0,1ms): shard 0 sends three messages due next epoch.
	for i := 0; i < 3; i++ {
		i := i
		local.Send(0, 1, Time(time.Millisecond).Add(time.Duration(i)*100*time.Microsecond),
			func(Time) { fired = append(fired, fmt.Sprintf("old%d", i)) })
	}
	// Shard 0's first epoch refills the same (0,1) ring — the appends
	// land in the swapped-in spare, not the slice being executed.
	kernels[0].At(Time(100*time.Microsecond), func(now Time) {
		for i := 0; i < 3; i++ {
			i := i
			local.Send(0, 1, now.Add(la), func(Time) { fired = append(fired, fmt.Sprintf("new%d", i)) })
		}
	})
	r.SetSequential(true)
	r.RunUntil(Time(3 * time.Millisecond))
	// Expected order is pure event-time merge: old0 fires at 1ms; the
	// refill lands all three new messages at 1.1ms, alongside old1
	// (same time, earlier insertion) and ahead of old2 at 1.2ms. Any
	// ring aliasing would have overwritten the undelivered old
	// messages with new ones instead of interleaving them.
	want := []string{"old0", "old1", "new0", "new1", "new2", "old2"}
	if fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
}

// sendTrampoline is a prebound no-op event so the alloc measurement
// below counts the exchange machinery, not test-closure construction.
func sendTrampoline(Time) {}

// TestEpochExchangeAllocs is the allocation-regression gate on the hot
// path: once the rings and kernel freelists are warm, an epoch cycle —
// two cross-shard sends, the barrier swap, delivery into kernels, and
// the kernel advancing through the delivered events — must allocate
// nothing.
func TestEpochExchangeAllocs(t *testing.T) {
	la := time.Millisecond
	kernels := []*Kernel{NewKernel(1), NewKernel(2)}
	r, local := newEventRunner(kernels, la)
	r.SetSequential(true) // measure the exchange, not goroutine scheduling

	now := Time(0)
	cycle := func() {
		local.Send(0, 1, now.Add(la), sendTrampoline)
		local.Send(1, 0, now.Add(la), sendTrampoline)
		now = now.Add(la)
		r.RunUntil(now)
	}
	for i := 0; i < 8; i++ {
		cycle() // warm rings and item freelists to steady state
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("epoch exchange allocates %.1f objects per cycle, want 0", avg)
	}
}

// TestRunnerCloseIdempotent: Close twice, and a sequential advance
// after Close still works (only the parallel workers are torn down).
func TestRunnerCloseIdempotent(t *testing.T) {
	r := NewParallelRunner([]*Kernel{NewKernel(1), NewKernel(2)}, time.Millisecond)
	r.RunFor(2 * time.Millisecond) // spin the workers up
	r.Close()
	r.Close()
	r.SetSequential(true)
	r.RunFor(time.Millisecond)
	if r.Now() != Time(3*time.Millisecond) {
		t.Fatalf("clock = %v, want 3ms", r.Now())
	}
}
