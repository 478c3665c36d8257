package telescope

import (
	"testing"
	"time"

	"potemkin/internal/netsim"
	"potemkin/internal/sim"
)

func TestRecordPacket(t *testing.T) {
	rec := Record{
		Src: 1, Dst: 2, Proto: netsim.ProtoUDP,
		SrcPort: 3, DstPort: 4, PayLen: 10,
	}
	p := rec.Packet()
	if p.Proto != netsim.ProtoUDP || len(p.Payload) != 10 {
		t.Errorf("packet = %s", p)
	}
	// Must survive the wire.
	if _, err := netsim.Unmarshal(p.Marshal()); err != nil {
		t.Error(err)
	}
	icmp := Record{Proto: netsim.ProtoICMP}
	if icmp.Packet().ICMPType != 8 {
		t.Error("ICMP record should be echo request")
	}
}

func TestGenerateBasicShape(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Duration = 2 * time.Minute
	recs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := Summarize(recs)
	// Within 20% of the requested volume.
	want := cfg.Rate * cfg.Duration.Seconds()
	if float64(st.Packets) < want*0.8 || float64(st.Packets) > want*1.2 {
		t.Errorf("packets = %d, want ~%.0f", st.Packets, want)
	}
	// All destinations inside the monitored space; sources outside.
	for i := range recs {
		if !cfg.Space.Contains(recs[i].Dst) {
			t.Fatalf("record %d dst %s outside space", i, recs[i].Dst)
		}
		if cfg.Space.Contains(recs[i].Src) {
			t.Fatalf("record %d src %s inside space", i, recs[i].Src)
		}
	}
	// Time-ordered.
	for i := 1; i < len(recs); i++ {
		if recs[i].At < recs[i-1].At {
			t.Fatal("trace not sorted")
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Duration = 30 * time.Second
	a, _ := Generate(cfg)
	b, _ := Generate(cfg)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Equal(&b[i]) {
			t.Fatalf("record %d differs", i)
		}
	}
	cfg.Seed = 2
	c, _ := Generate(cfg)
	same := 0
	for i := 0; i < len(a) && i < len(c); i++ {
		if a[i].Equal(&c[i]) {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical traces")
	}
}

func TestGeneratePopularitySkew(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Duration = 5 * time.Minute
	cfg.SweepFrac = 0 // isolate background
	cfg.VerticalFrac = 0
	recs, _ := Generate(cfg)
	counts := map[netsim.Addr]int{}
	for i := range recs {
		counts[recs[i].Dst]++
	}
	// Heavy tail: the top address should see far more than the mean.
	max, total := 0, 0
	for _, c := range counts {
		total += c
		if c > max {
			max = c
		}
	}
	mean := float64(total) / float64(len(counts))
	if float64(max) < 10*mean {
		t.Errorf("max %d vs mean %.1f: popularity not heavy-tailed", max, mean)
	}
}

func TestGenerateSweepLocality(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Duration = time.Minute
	cfg.SweepFrac = 1.0
	cfg.VerticalFrac = 0
	cfg.SweepWidth = 256
	recs, _ := Generate(cfg)
	if len(recs) == 0 {
		t.Fatal("no sweep records")
	}
	// Group by source; within a sweep, destinations are consecutive.
	bySrc := map[netsim.Addr][]Record{}
	for _, r := range recs {
		bySrc[r.Src] = append(bySrc[r.Src], r)
	}
	checked := 0
	for _, rs := range bySrc {
		if len(rs) < 10 {
			continue
		}
		consecutive := 0
		for i := 1; i < len(rs); i++ {
			if rs[i].Dst == rs[i-1].Dst+1 {
				consecutive++
			}
		}
		if consecutive < len(rs)/2 {
			t.Errorf("sweep source %s: only %d/%d consecutive", rs[0].Src, consecutive, len(rs))
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no sweeps large enough to check")
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Rate = 0
	if _, err := Generate(cfg); err == nil {
		t.Error("zero rate accepted")
	}
	cfg = DefaultGenConfig()
	cfg.SweepFrac = 0.8
	cfg.VerticalFrac = 0.5
	if _, err := Generate(cfg); err == nil {
		t.Error("mix > 1 accepted")
	}
}

func TestSummarize(t *testing.T) {
	recs := []Record{
		{At: 0, Src: 1, Dst: 10},
		{At: sim.Start.Add(2 * time.Second), Src: 1, Dst: 11},
		{At: sim.Start.Add(4 * time.Second), Src: 2, Dst: 10},
	}
	st := Summarize(recs)
	if st.Packets != 3 || st.UniqueSources != 2 || st.UniqueDests != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.Duration != 4*time.Second {
		t.Errorf("duration = %v", st.Duration)
	}
	if st.RatePPS != 0.75 {
		t.Errorf("rate = %v", st.RatePPS)
	}
}
