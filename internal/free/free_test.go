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

func TestWarmListAllocatesNothing(t *testing.T) {
	var l List[*int]
	x := new(int)
	l.Put(x)
	l.Get()
	if avg := testing.AllocsPerRun(100, func() {
		l.Put(x)
		l.PutBelow(x, 2)
		l.Get()
		l.Get()
	}); avg != 0 {
		t.Errorf("Get and Put on a warm list allocate %.1f objects, want 0", avg)
	}
}
