package free

import "testing"

func TestGetReturnsLastPut(t *testing.T) {
	var l List[int]
	if _, ok := l.Get(); ok {
		t.Fatal("an empty list handed out an item")
	}
	for i := 1; i <= 3; i++ {
		l.Put(i)
	}
	for want := 3; want >= 1; want-- {
		if got, ok := l.Get(); !ok || got != want {
			t.Fatalf("Get = %d, %v; want %d, true", got, ok, want)
		}
	}
	if _, ok := l.Get(); ok || l.Len() != 0 {
		t.Fatalf("a drained list still holds %d items", l.Len())
	}
}

// TestGetClearsItsSlot reads the whole backing array: a pointer left
// behind a handed-out item would keep it, and all it reaches, alive.
func TestGetClearsItsSlot(t *testing.T) {
	var l List[*int]
	for i := range 4 {
		l.Put(&i)
	}
	for l.Len() > 1 {
		l.Get()
		for i, p := range l[l.Len():cap(l)] {
			if p != nil {
				t.Fatalf("with %d parked, slot %d past them still points at an item", l.Len(), l.Len()+i)
			}
		}
	}
}

func TestPutBelowRefusesAtLimit(t *testing.T) {
	var l List[int]
	for i := range 2 {
		if !l.PutBelow(i, 2) {
			t.Fatalf("PutBelow refused item %d below the limit", i)
		}
	}
	if l.PutBelow(2, 2) {
		t.Fatal("PutBelow parked an item at the limit")
	}
	if l.Len() != 2 {
		t.Fatalf("Len = %d after a refused PutBelow, want 2", l.Len())
	}
	if got, _ := l.Get(); got != 1 {
		t.Fatalf("Get = %d, want 1: the refused item must not be parked", got)
	}
	if l.PutBelow(3, 0) {
		t.Fatal("PutBelow parked an item under a zero limit")
	}
}

// TestTrimKeepsLargestPeriod drives a pool through a burst period, a
// quieter one and an idle one: each Trim keeps keep times the largest
// period's demand, misses included, and never forgets it.
func TestTrimKeepsLargestPeriod(t *testing.T) {
	var p Pool[*int]
	period := func(n int) {
		items := make([]*int, n)
		for i := range items {
			if x, ok := p.Get(); ok {
				items[i] = x
			} else {
				items[i] = new(int)
			}
		}
		for _, x := range items {
			p.Put(x)
		}
	}
	period(10) // all misses: demand 10, 10 parked
	p.Trim(2)
	if p.Len() != 10 {
		t.Fatalf("after a burst of 10 at keep 2: %d parked, want all 10", p.Len())
	}
	period(3)
	p.Trim(1)
	if p.Len() != 10 {
		t.Fatalf("a quieter period trimmed to %d; the largest period (10) still counts", p.Len())
	}
	p.Trim(1) // idle: no Get at all
	if p.Len() != 10 {
		t.Fatalf("an idle period trimmed to %d; the memory must not decay", p.Len())
	}
	for range 4 {
		p.Put(new(int))
	}
	p.Trim(1)
	if p.Len() != 10 {
		t.Fatalf("Trim(1) left %d parked, want 10", p.Len())
	}
	for i, x := range p.List[p.Len():cap(p.List)] {
		if x != nil {
			t.Fatalf("slot %d past the kept items still points at a dropped one", p.Len()+i)
		}
	}
	var q Pool[int]
	q.Put(1)
	q.Trim(1)
	if q.Len() != 0 {
		t.Fatalf("a pool nothing was ever taken from kept %d items", q.Len())
	}
}

func TestWarmListAllocatesNothing(t *testing.T) {
	var l List[*int]
	var p Pool[*int]
	x := new(int)
	l.Put(x)
	l.Get()
	p.Put(x)
	p.Put(x)
	p.Get()
	p.Get()
	if avg := testing.AllocsPerRun(100, func() {
		l.Put(x)
		l.PutBelow(x, 2)
		l.Get()
		l.Get()
		p.Put(x)
		p.Put(x)
		p.Trim(1)
		p.Get()
		p.Get()
	}); avg != 0 {
		t.Errorf("Get, Put and Trim on a warm list allocate %.1f objects, want 0", avg)
	}
}
