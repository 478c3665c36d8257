package worm

import (
	"encoding/binary"
	"hash/fnv"
	"io"
	"math"
	"testing"
	"time"

	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/telescope"
)

// scans reads e's Source through end and returns every record.
func scans(t *testing.T, e *Epidemic, end sim.Time) []telescope.Record {
	t.Helper()
	src := e.Source(end)
	var recs []telescope.Record
	for {
		var rec telescope.Record
		err := src.Read(&rec)
		if err == io.EOF {
			return recs
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
}

func TestEpidemicGrowsLogistically(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Susceptible = 1 << 20
	cfg.InitialInfected = 100
	cfg.ScanRate = 100
	e := New(cfg)
	e.RunUntil(sim.Start.Add(10 * time.Minute))

	st := e.Stats()
	if st.Infected <= cfg.InitialInfected {
		t.Fatalf("no growth: %d", st.Infected)
	}
	// Conservation.
	if st.Infected+st.Susceptible != cfg.Susceptible {
		t.Errorf("population leak: %d + %d != %d", st.Infected, st.Susceptible, cfg.Susceptible)
	}
	// Growth-curve shape: monotone non-decreasing, slow-fast-slow.
	prev := 0.0
	for i, v := range e.Curve.V {
		if v < prev {
			t.Fatalf("infected decreased at sample %d", i)
		}
		prev = v
	}
}

func TestEpidemicMatchesAnalyticEarlyGrowth(t *testing.T) {
	// Early phase: I(t) ≈ I0 * exp(r*S0/2^32 * t). With S0 = 2^24,
	// r = 256 scans/s: rate const = 256 * 2^24 / 2^32 = 1 per second.
	cfg := DefaultConfig()
	cfg.Susceptible = 1 << 24
	cfg.InitialInfected = 1000
	cfg.ScanRate = 256
	e := New(cfg)
	e.RunUntil(sim.Start.Add(4 * time.Second))
	got := float64(e.Infected())
	want := 1000 * math.Exp(4)
	if got < want*0.7 || got > want*1.4 {
		t.Errorf("I(4s) = %.0f, analytic ~%.0f", got, want)
	}
}

func TestTelescopeHitRate(t *testing.T) {
	// 1000 infected × 100 scans/s × (2^16/2^32) = ~1.5 hits/s.
	cfg := DefaultConfig()
	cfg.Susceptible = 1 << 20
	cfg.InitialInfected = 1000
	cfg.ScanRate = 100
	// Freeze growth to keep the rate interpretable.
	cfg.Susceptible = cfg.InitialInfected + 1
	e := New(cfg)
	delivered := len(scans(t, e, sim.Start.Add(100*time.Second)))
	want := 1000.0 * 100 * 100 * float64(cfg.Telescope.Size()) / (1 << 32)
	got := float64(e.Stats().TelescopeHits)
	if got < want*0.7 || got > want*1.3 {
		t.Errorf("telescope hits = %.0f, want ~%.0f", got, want)
	}
	if delivered == 0 {
		t.Error("no packets delivered")
	}
}

func TestDeliveredPacketsAreValidProbes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InitialInfected = 5000
	cfg.ScanRate = 500
	cfg.ExploitPayload = []byte("sig\x00")
	recs := scans(t, New(cfg), sim.Start.Add(20*time.Second))
	if len(recs) == 0 {
		t.Fatal("no packets")
	}
	for i := range recs {
		p := recs[i].Packet()
		if !cfg.Telescope.Contains(p.Dst) {
			t.Fatalf("probe dst %s outside telescope", p.Dst)
		}
		if cfg.Telescope.Contains(p.Src) {
			t.Fatalf("probe src %s inside telescope", p.Src)
		}
		if p.DstPort != 445 || string(p.Payload) != "sig\x00" {
			t.Fatalf("probe malformed: %s", p)
		}
		// Survives the wire.
		if _, err := netsim.Unmarshal(p.Marshal()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFirstTelescopeHitScalesWithTelescopeSize(t *testing.T) {
	detect := func(bits int) sim.Time {
		cfg := DefaultConfig()
		cfg.Telescope = netsim.Prefix{Base: netsim.MustParseAddr("10.0.0.0"), Bits: bits}
		cfg.InitialInfected = 10
		cfg.ScanRate = 10
		cfg.Susceptible = 1 << 20
		e := New(cfg)
		e.RunUntil(sim.Start.Add(time.Hour))
		if !e.Stats().SeenTelescope {
			return sim.End
		}
		return e.Stats().FirstTelescopeHit
	}
	t8 := detect(8)
	t16 := detect(16)
	t24 := detect(24)
	if !(t8 < t16 && t16 < t24) {
		t.Errorf("detection times not ordered: /8=%v /16=%v /24=%v", t8, t16, t24)
	}
}

func TestDeliveryCapSuppresses(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InitialInfected = 100000
	cfg.ScanRate = 1000
	cfg.MaxDeliverPerStep = 5
	e := New(cfg)
	delivered := len(scans(t, e, sim.Start.Add(5*time.Second)))
	if e.Stats().SuppressedPackets == 0 {
		t.Error("no suppression under extreme load")
	}
	st := e.Stats()
	if uint64(delivered) != st.DeliveredPackets {
		t.Errorf("delivered %d != stat %d", delivered, st.DeliveredPackets)
	}
	if st.DeliveredPackets+st.SuppressedPackets != st.TelescopeHits {
		t.Errorf("hit accounting: %d + %d != %d",
			st.DeliveredPackets, st.SuppressedPackets, st.TelescopeHits)
	}
}

func TestInjectLeakInfects(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Susceptible = 1 << 30 // dense: leaks likely to land
	cfg.InitialInfected = 10
	e := New(cfg)
	before := e.Infected()
	leak := netsim.TCPSyn(netsim.MustParseAddr("10.5.0.1"), netsim.MustParseAddr("99.0.0.1"), 1, 445, 1)
	leak.Payload = []byte("sig")
	for i := 0; i < 1000; i++ {
		e.InjectLeak(leak)
	}
	if e.Infected() <= before {
		t.Error("leaks never infected anyone")
	}
	if e.Stats().LeakInfections == 0 {
		t.Error("LeakInfections not counted")
	}
}

func TestInjectLeakIgnoresBenignAndInternal(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Susceptible = 1 << 30
	e := New(cfg)
	before := e.Infected()
	// No payload: not an exploit.
	for i := 0; i < 1000; i++ {
		e.InjectLeak(netsim.TCPSyn(1, netsim.MustParseAddr("99.0.0.1"), 1, 445, 1))
	}
	// Telescope-internal destination: not a leak.
	internal := netsim.TCPSyn(1, netsim.MustParseAddr("10.5.0.9"), 1, 445, 1)
	internal.Payload = []byte("sig")
	for i := 0; i < 1000; i++ {
		e.InjectLeak(internal)
	}
	if e.Infected() != before {
		t.Error("benign or internal packets caused infections")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (int, uint64) {
		cfg := DefaultConfig()
		cfg.InitialInfected = 200
		cfg.ScanRate = 200
		e := New(cfg)
		e.RunUntil(sim.Start.Add(time.Minute))
		return e.Infected(), e.Stats().TelescopeHits
	}
	i1, h1 := run()
	i2, h2 := run()
	if i1 != i2 || h1 != h2 {
		t.Errorf("non-deterministic: (%d,%d) vs (%d,%d)", i1, h1, i2, h2)
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(Config{Susceptible: 0, InitialInfected: 1})
}

// TestSourceScanStreamPinned pins the first scans the source yields at
// seed 1 — time, addresses, ports and payload. The value was taken from
// the epidemic's stream when it still delivered packets from kernel
// ticks: the source keeps its draw order.
func TestSourceScanStreamPinned(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InitialInfected = 5000
	cfg.ScanRate = 500
	cfg.ExploitPayload = []byte("sig\x00")
	recs := scans(t, New(cfg), sim.Start.Add(30*time.Second))
	if len(recs) < 500 {
		t.Fatalf("%d scans, want at least 500", len(recs))
	}
	h := fnv.New64a()
	var b [20]byte
	for _, r := range recs[:500] {
		binary.LittleEndian.PutUint64(b[0:], uint64(r.At))
		binary.LittleEndian.PutUint32(b[8:], uint32(r.Src))
		binary.LittleEndian.PutUint32(b[12:], uint32(r.Dst))
		binary.LittleEndian.PutUint16(b[16:], r.SrcPort)
		binary.LittleEndian.PutUint16(b[18:], r.DstPort)
		h.Write(b[:])
		h.Write(r.Payload)
	}
	if got, want := h.Sum64(), uint64(0xc74d675446d9d7be); got != want {
		t.Errorf("scan stream FNV = %#x, want %#x", got, want)
	}
}
