package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestKernelOrdersEventsByTime(t *testing.T) {
	k := NewKernel(1)
	var got []int
	k.At(30, func(Time) { got = append(got, 3) })
	k.At(10, func(Time) { got = append(got, 1) })
	k.At(20, func(Time) { got = append(got, 2) })
	k.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != 30 {
		t.Errorf("Now() = %v, want 30", k.Now())
	}
}

func TestKernelSameTimeFIFO(t *testing.T) {
	k := NewKernel(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(5, func(Time) { got = append(got, i) })
	}
	k.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events out of scheduling order: %v", got)
		}
	}
}

func TestKernelEventsCanSchedule(t *testing.T) {
	k := NewKernel(1)
	fired := 0
	var chain Event
	chain = func(now Time) {
		fired++
		if fired < 5 {
			k.After(time.Millisecond, chain)
		}
	}
	k.After(0, chain)
	k.Run()
	if fired != 5 {
		t.Errorf("fired = %d, want 5", fired)
	}
	if want := Time(4 * time.Millisecond); k.Now() != want {
		t.Errorf("Now() = %v, want %v", k.Now(), want)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	k := NewKernel(1)
	k.At(100, func(Time) {})
	k.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	k.At(50, func(Time) {})
}

func TestTimerStop(t *testing.T) {
	k := NewKernel(1)
	fired := false
	tm := k.At(10, func(Time) { fired = true })
	if !tm.Stop() {
		t.Error("first Stop() = false, want true")
	}
	if tm.Stop() {
		t.Error("second Stop() = true, want false")
	}
	k.Run()
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	k := NewKernel(1)
	tm := k.At(10, func(Time) {})
	k.Run()
	if tm.Stop() {
		t.Error("Stop() after firing = true, want false")
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	k := NewKernel(1)
	fired := 0
	k.At(10, func(Time) { fired++ })
	k.At(1000, func(Time) { fired++ })
	k.RunUntil(500)
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	if k.Now() != 500 {
		t.Errorf("Now() = %v, want 500", k.Now())
	}
	k.Run()
	if fired != 2 {
		t.Errorf("after Run, fired = %d, want 2", fired)
	}
}

func TestTicker(t *testing.T) {
	k := NewKernel(1)
	n := 0
	var tk *Ticker
	tk = k.Every(time.Second, func(Time) {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	k.RunUntil(Start.Add(time.Minute))
	if n != 3 {
		t.Errorf("ticks = %d, want 3", n)
	}
}

func TestTickerStopInsideOtherEvent(t *testing.T) {
	k := NewKernel(1)
	n := 0
	tk := k.Every(time.Second, func(Time) { n++ })
	k.At(Start.Add(2500*time.Millisecond), func(Time) { tk.Stop() })
	k.Run()
	if n != 2 {
		t.Errorf("ticks = %d, want 2", n)
	}
}

func TestStopHaltsRun(t *testing.T) {
	k := NewKernel(1)
	fired := 0
	k.At(1, func(Time) { fired++; k.Stop() })
	k.At(2, func(Time) { fired++ })
	k.Run()
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	k.Run() // resumes
	if fired != 2 {
		t.Errorf("after resume fired = %d, want 2", fired)
	}
}

func TestTickerStopsAtEndOfTime(t *testing.T) {
	k := NewKernel(1)
	fired := 0
	k.Every(time.Hour, func(Time) { fired++ })
	// Run straight to the end of representable time: the ticker must
	// not spin forever at the saturation boundary.
	k.RunUntil(End)
	if k.Now() != End {
		t.Errorf("Now = %v", k.Now())
	}
	if fired == 0 {
		t.Error("ticker never fired")
	}
}

func TestTimeAddSaturates(t *testing.T) {
	if got := End.Add(time.Hour); got != End {
		t.Errorf("End.Add = %v, want End", got)
	}
	if got := Start.Add(time.Second); got != Time(time.Second) {
		t.Errorf("Start.Add(1s) = %v", got)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []Time {
		k := NewKernel(42)
		r := k.Stream("load")
		var times []Time
		var gen Event
		gen = func(now Time) {
			times = append(times, now)
			if len(times) < 100 {
				k.After(time.Duration(r.Exp(1e6)), gen)
			}
		}
		k.After(0, gen)
		k.Run()
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestStreamsIndependent(t *testing.T) {
	k := NewKernel(7)
	a, b := k.Stream("a"), k.Stream("b")
	a2 := k.Stream("a")
	if a.Uint64() != a2.Uint64() {
		t.Error("same-name streams differ")
	}
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different-name streams collided %d/64 times", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(9)
	err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestRNGUniformity(t *testing.T) {
	r := NewRNG(11)
	const buckets, draws = 10, 100000
	var counts [buckets]int
	for i := 0; i < draws; i++ {
		counts[r.Intn(buckets)]++
	}
	for i, c := range counts {
		// Expect 10000 per bucket; 5% tolerance is ~16 sigma.
		if c < 9500 || c > 10500 {
			t.Errorf("bucket %d count %d outside [9500,10500]", i, c)
		}
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(13)
	const mean, n = 250.0, 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(mean)
	}
	got := sum / n
	if got < mean*0.98 || got > mean*1.02 {
		t.Errorf("Exp mean = %v, want ~%v", got, mean)
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(19)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal(5, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if mean < 4.97 || mean > 5.03 {
		t.Errorf("Normal mean = %v, want ~5", mean)
	}
	if variance < 3.8 || variance > 4.2 {
		t.Errorf("Normal variance = %v, want ~4", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(23)
	for _, n := range []int{0, 1, 2, 17, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(29)
	z := NewZipf(r, 1000, 1.0)
	var counts [1000]int
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[z.Draw()]++
	}
	if counts[0] <= counts[500] {
		t.Errorf("rank 0 (%d) not more popular than rank 500 (%d)", counts[0], counts[500])
	}
	// Rank 0 of Zipf(s=1, n=1000) has probability 1/H(1000) ≈ 0.1336.
	if counts[0] < draws/10 {
		t.Errorf("rank 0 count %d suspiciously low", counts[0])
	}
}

func TestZipfDrawInRange(t *testing.T) {
	r := NewRNG(31)
	z := NewZipf(r, 7, 0.8)
	for i := 0; i < 10000; i++ {
		if v := z.Draw(); v < 0 || v >= 7 {
			t.Fatalf("Zipf draw out of range: %d", v)
		}
	}
}

// Property: events fire in non-decreasing time order regardless of the
// scheduling order.
func TestEventOrderProperty(t *testing.T) {
	err := quick.Check(func(offsets []uint32) bool {
		k := NewKernel(5)
		var fired []Time
		for _, off := range offsets {
			k.At(Time(off), func(now Time) { fired = append(fired, now) })
		}
		k.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(offsets)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestFiredCount(t *testing.T) {
	k := NewKernel(1)
	for i := 0; i < 25; i++ {
		k.At(Time(i), func(Time) {})
	}
	k.Run()
	if k.Fired() != 25 {
		t.Errorf("Fired() = %d, want 25", k.Fired())
	}
	if k.Pending() != 0 {
		t.Errorf("Pending() = %d, want 0", k.Pending())
	}
}
