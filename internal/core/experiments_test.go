package core

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"potemkin/internal/gateway"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/telescope"
)

func TestE1ShapeHolds(t *testing.T) {
	res := RunE1(1, 10)
	if res.Table.NumRows() != int(5+3) {
		t.Fatalf("rows = %d\n%s", res.Table.NumRows(), res.Table)
	}
	// Headline shape: flash clone is sub-second; full boot is tens of
	// seconds; speedup is more than an order of magnitude.
	if res.CloneMeanMs < 300 || res.CloneMeanMs > 800 {
		t.Errorf("clone mean = %.0f ms, want ~520", res.CloneMeanMs)
	}
	if res.BootMeanMs < 10000 {
		t.Errorf("boot mean = %.0f ms, want tens of seconds", res.BootMeanMs)
	}
	if res.BootMeanMs/res.CloneMeanMs < 10 {
		t.Errorf("speedup = %.1f, want > 10x", res.BootMeanMs/res.CloneMeanMs)
	}
	if !strings.Contains(res.Table.String(), "device-clone") {
		t.Error("breakdown missing device-clone step")
	}
}

func TestE2DeltaBeatsFullCopy(t *testing.T) {
	res := RunE2(1, 20, 60*time.Second)
	if res.Footprint.NumRows() < 3 {
		t.Fatalf("too few samples:\n%s", res.Footprint)
	}
	// Final sample: delta per-VM MiB must be far below full-copy.
	last := res.Footprint.Row(res.Footprint.NumRows() - 1)
	delta, full := parseF(t, last[1]), parseF(t, last[4])
	if delta*4 > full {
		t.Errorf("delta %.1f MiB not << full-copy %.1f MiB\n%s", delta, full, res.Footprint)
	}
	// Content sharing and KSM passes are at least as good as plain delta.
	content := parseF(t, last[2])
	if content > delta*1.05 {
		t.Errorf("content sharing (%.2f) worse than delta (%.2f)", content, delta)
	}
	ksm := parseF(t, last[3])
	if ksm > delta*1.05 {
		t.Errorf("ksm (%.2f) worse than delta (%.2f)", ksm, delta)
	}
	if res.MeanFootprintMB <= 0 {
		t.Error("no measured footprint")
	}

	// Density: delta admits at least 5x more VMs on both server sizes.
	for col := 1; col <= 2; col++ {
		d := parseF(t, res.Density.Row(0)[col])
		f := parseF(t, res.Density.Row(1)[col])
		if d < 5*f {
			t.Errorf("col %d: delta %v not >> full %v\n%s", col, d, f, res.Density)
		}
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func smallTrace(t *testing.T) []telescope.Record {
	t.Helper()
	cfg := telescope.DefaultGenConfig()
	cfg.Duration = 90 * time.Second
	cfg.Rate = 60
	recs, err := telescope.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestE3RecyclingReducesLiveVMs(t *testing.T) {
	trace := smallTrace(t)
	space := telescope.DefaultGenConfig().Space
	timeouts := []time.Duration{time.Second, 30 * time.Second, 0}
	res := RunE3(1, trace, space, timeouts)
	if res.Table.NumRows() != 3 {
		t.Fatalf("rows = %d", res.Table.NumRows())
	}
	p1 := res.PeakByTimeout[time.Second]
	p30 := res.PeakByTimeout[30*time.Second]
	pNever := res.PeakByTimeout[0]
	if !(p1 < p30 && p30 <= pNever) {
		t.Errorf("peaks not ordered: 1s=%d 30s=%d never=%d", p1, p30, pNever)
	}
	// The headline multiplexing claim: aggressive recycling needs far
	// fewer VMs than addresses touched.
	if pNever > 0 && p1*5 > pNever {
		t.Errorf("aggressive recycling only %dx better (%d vs %d)", pNever/max(p1, 1), p1, pNever)
	}
	if len(res.Series) != 3 {
		t.Errorf("series = %d", len(res.Series))
	}
}

func TestE3ScanFilterReducesChurn(t *testing.T) {
	trace := smallTrace(t)
	space := telescope.DefaultGenConfig().Space
	tab := RunE3ScanFilter(1, trace, space, 30*time.Second, []int{0, 3})
	if tab.NumRows() != 2 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	off := parseF(t, tab.Row(0)[2])
	on := parseF(t, tab.Row(1)[2])
	if on >= off {
		t.Errorf("filter did not reduce bindings: %v -> %v\n%s", off, on, tab)
	}
	if tab.Row(1)[3] == "0" {
		t.Errorf("no packets filtered:\n%s", tab)
	}
}

// TestE3LittlesLaw cross-checks the multiplexing result against
// queueing theory: live bindings form an M/G/∞-ish system, so mean
// concurrency ≈ binding arrival rate × mean binding lifetime (Little's
// law). The two sides are measured completely independently (one from
// the sampled live series, one from gateway counters), so agreement is
// strong evidence the recycling machinery is bookkeeping honestly.
func TestE3LittlesLaw(t *testing.T) {
	trace := smallTrace(t)
	space := telescope.DefaultGenConfig().Space
	timeout := 2 * time.Second
	res := RunE3(1, trace, space, []time.Duration{timeout})

	meanLive := parseF(t, res.Table.Row(0)[1]) // median ≈ mean for this regime
	created := parseF(t, res.Table.Row(0)[4])
	traceSecs := 90.0
	arrivalRate := created / traceSecs
	// Lifetime ≈ activity span + idle timeout + scrub lag (timeout/4 on
	// average) + clone time. Activity span per binding is small for
	// background traffic; bound it loosely.
	minLife := timeout.Seconds() + 0.5
	maxLife := timeout.Seconds()*1.5 + 3.0
	lo, hi := arrivalRate*minLife, arrivalRate*maxLife
	if meanLive < lo*0.5 || meanLive > hi*2 {
		t.Errorf("Little's law violated: live %v outside [%v, %v] (rate %.1f/s)",
			meanLive, lo*0.5, hi*2, arrivalRate)
	}
}

func TestE4WorkloadProcessesFrames(t *testing.T) {
	w := NewE4Workload(1, 100, 1000, 0.9)
	before := w.G.Stats().InboundPackets
	for i := 0; i < 500; i++ {
		w.Step()
	}
	st := w.G.Stats()
	if st.InboundPackets != before+500 {
		t.Errorf("inbound = %d", st.InboundPackets-before)
	}
	if st.InboundNonIP != 0 {
		t.Errorf("non-IP = %d (frames should be valid)", st.InboundNonIP)
	}
	if st.DeliveredToVM == 0 {
		t.Error("nothing delivered on warm path")
	}
}

func TestE5ContainmentShape(t *testing.T) {
	res := RunE5(1, StandardE5Arms(), 90*time.Second)
	if res.Table.NumRows() != 5 {
		t.Fatalf("rows = %d\n%s", res.Table.NumRows(), res.Table)
	}
	rows := map[string][]string{}
	for i := 0; i < res.Table.NumRows(); i++ {
		r := res.Table.Row(i)
		rows[r[0]] = r
	}
	// Contained policies leak nothing.
	for _, arm := range []string{"drop-all", "reflect-source", "internal-reflect"} {
		if rows[arm][3] != "0" {
			t.Errorf("%s leaked infections: %v", arm, rows[arm])
		}
	}
	// Open honeyfarm leaks packets.
	if rows["open"][2] == "0" {
		t.Errorf("open honeyfarm leaked no packets: %v", rows["open"])
	}
	// Every honeyfarm arm captured the worm.
	for _, arm := range []string{"open", "drop-all", "reflect-source", "internal-reflect"} {
		if rows[arm][4] == "none" {
			t.Errorf("%s never captured the worm", arm)
		}
	}
	if len(res.Curves) != 5 {
		t.Errorf("curves = %d", len(res.Curves))
	}
}

// TestE5ArmIsDeterministic: a small, fast outbreak at seed 3 reruns to
// the same arm result under drop-all and under internal-reflect.
func TestE5ArmIsDeterministic(t *testing.T) {
	for _, pol := range []gateway.Policy{gateway.PolicyDropAll, gateway.PolicyInternalReflect} {
		arm := E5Arm{Name: pol.String(), Policy: pol}
		a, b := runE5Arm(3, arm, 20*time.Second), runE5Arm(3, arm, 20*time.Second)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%v: two runs at seed 3 differ:\n%+v\n%+v", pol, a, b)
		}
	}
}

// TestE5ArmContainment: on a small, fast outbreak at seed 3, drop-all
// lets no packet out; internal-reflect turns the captured worm's scans
// into internal reflections and infects nobody outside.
func TestE5ArmContainment(t *testing.T) {
	run := func(pol gateway.Policy) e5ArmResult {
		return runE5Arm(3, E5Arm{Name: pol.String(), Policy: pol}, 20*time.Second)
	}
	if r := run(gateway.PolicyDropAll); r.leakedPkts != 0 {
		t.Errorf("drop-all leaked %d packets", r.leakedPkts)
	}
	r := run(gateway.PolicyInternalReflect)
	if r.reflected == 0 {
		t.Errorf("internal-reflect made no internal reflections: %+v", r)
	}
	if r.st.LeakInfections != 0 {
		t.Errorf("internal-reflect caused %d outside infections", r.st.LeakInfections)
	}
}

func TestE6DetectionScales(t *testing.T) {
	res := RunE6(1, []int{8, 16}, []float64{100}, 2)
	if res.Table.NumRows() != 2 {
		t.Fatalf("rows = %d", res.Table.NumRows())
	}
	t8 := parseF(t, res.Table.Row(0)[1])
	t16 := parseF(t, res.Table.Row(1)[1])
	if t8 >= t16 {
		t.Errorf("/8 detection (%v) not faster than /16 (%v)", t8, t16)
	}
}

func TestE7Provisioning(t *testing.T) {
	trace := smallTrace(t)
	space := telescope.DefaultGenConfig().Space
	res := RunE7(1, trace, space, []time.Duration{time.Second, 0}, 2.0)
	if res.Table.NumRows() != 2 {
		t.Fatalf("rows = %d", res.Table.NumRows())
	}
	sAggressive := parseF(t, res.Table.Row(0)[3])
	sNever := parseF(t, res.Table.Row(1)[3])
	if sAggressive > sNever {
		t.Errorf("aggressive recycling needs MORE servers (%v vs %v)", sAggressive, sNever)
	}
}

func TestE9LatencyKnee(t *testing.T) {
	res := RunE9(1, 100*time.Microsecond, []float64{0.3, 0.9, 1.2}, 5*time.Second)
	if res.Table.NumRows() != 3 {
		t.Fatalf("rows = %d", res.Table.NumRows())
	}
	low := parseF(t, res.Table.Row(0)[2])
	high := parseF(t, res.Table.Row(1)[2])
	over := parseF(t, res.Table.Row(2)[2])
	// Below saturation: mean sojourn near the 0.1 ms service time.
	if low < 0.09 || low > 0.3 {
		t.Errorf("30%% load mean = %v ms, want ~0.1-0.2", low)
	}
	// The knee: latency grows sharply approaching capacity and the
	// overloaded point both queues to the cap and drops.
	if high < 2*low {
		t.Errorf("no knee: 30%%=%v 90%%=%v", low, high)
	}
	if over < high {
		t.Errorf("overload (%v) not worse than 90%% (%v)", over, high)
	}
	if drop := parseF(t, res.Table.Row(2)[5]); drop <= 0 {
		t.Errorf("overload dropped %v%%, want > 0", drop)
	}
	if drop := parseF(t, res.Table.Row(0)[5]); drop != 0 {
		t.Errorf("30%% load dropped %v%%", drop)
	}
}

func TestE10ResponseShrinksEpidemic(t *testing.T) {
	arms := []E10Arm{
		{Name: "no-response"},
		{Name: "/16-slow", TelescopeBits: 16, ReactionDelay: 20 * time.Minute},
		{Name: "/8-fast", TelescopeBits: 8, ReactionDelay: time.Minute},
	}
	res := RunE10(1, arms, time.Hour, 0.005)
	if res.Table.NumRows() != 3 {
		t.Fatalf("rows = %d", res.Table.NumRows())
	}
	control := parseF(t, res.Table.Row(0)[3])
	slow := parseF(t, res.Table.Row(1)[3])
	fast := parseF(t, res.Table.Row(2)[3])
	// Response always beats no response; faster+bigger beats slower+smaller.
	if !(fast < slow && slow < control) {
		t.Errorf("final infected not ordered: control=%v slow=%v fast=%v\n%s",
			control, slow, fast, res.Table)
	}
	// The fast arm protected a large population.
	if imm := parseF(t, res.Table.Row(2)[4]); imm < control/4 {
		t.Errorf("fast arm immunized only %v of %v", imm, control)
	}
	// Control arm never captured or responded.
	if res.Table.Row(0)[1] != "n/a" || res.Table.Row(0)[2] != "n/a" {
		t.Errorf("control arm row: %v", res.Table.Row(0))
	}
}

// TestE10WatchSeesWholeSecondHitAfterItsStep pins RunE10's watch rule:
// once a second the operator looks at the state just before that
// second's step. A first telescope hit on a whole second is therefore
// seen a second later; with no reaction delay the response is due
// captureOverhead (one second) after the hit, at that same second, and
// deploys after its step. Had the operator looked after the step, the
// hit would be seen at once and the response would deploy before the
// step, immunizing one step more.
func TestE10WatchSeesWholeSecondHitAfterItsStep(t *testing.T) {
	const seed, bits, patch = 10, 12, 0.01
	end := sim.Start.Add(2 * time.Minute)
	probe := e10Epidemic(seed, bits)
	probe.RunUntil(end)
	hit := probe.Stats().FirstTelescopeHit
	if !probe.Stats().SeenTelescope || time.Duration(hit)%time.Second != 0 {
		t.Fatalf("first telescope hit at %v: the case needs one on a whole second", hit)
	}

	res := RunE10(seed, []E10Arm{{Name: "instant", TelescopeBits: bits}}, end.Sub(sim.Start), patch)
	deploy := hit.Add(captureOverhead)
	ref := e10Epidemic(seed, bits)
	ref.RunUntil(deploy)
	ref.StartResponse(patch)
	ref.RunUntil(end)

	row := res.Table.Row(0)
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"capture_s", parseF(t, row[1]), deploy.Seconds()},
		{"response_s", parseF(t, row[2]), deploy.Seconds()},
		{"final_infected", parseF(t, row[3]), float64(ref.Infected())},
		{"immunized", parseF(t, row[4]), float64(ref.Immunized())},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v (hit at %v)", c.name, c.got, c.want, hit)
		}
	}
}

func TestE2cAnalyticBound(t *testing.T) {
	res := RunE2c([]float64{1, 10, 100})
	if res.Table.NumRows() != 3 {
		t.Fatalf("rows = %d", res.Table.NumRows())
	}
	// Bound is inversely proportional to the per-VM rate.
	v1 := parseF(t, res.Table.Row(0)[1])
	v10 := parseF(t, res.Table.Row(1)[1])
	v100 := parseF(t, res.Table.Row(2)[1])
	if v1 != 10*v10 || v10 != 10*v100 {
		t.Errorf("bounds not inverse-linear: %v %v %v", v1, v10, v100)
	}
}

func TestE8ReflectionCapturesChains(t *testing.T) {
	res := RunE8(1, 15*time.Second)
	if res.Table.NumRows() != 2 {
		t.Fatalf("rows = %d\n%s", res.Table.NumRows(), res.Table)
	}
	noReflect := res.Table.Row(0)
	withReflect := res.Table.Row(1)
	// Without reflection only patient zero is infected; with it, the
	// chain propagates.
	if parseF(t, noReflect[1]) != 1 {
		t.Errorf("reflect-source infected = %v, want 1\n%s", noReflect[1], res.Table)
	}
	if parseF(t, withReflect[1]) < 2 {
		t.Errorf("internal-reflect infected = %v, want chain", withReflect[1])
	}
	if res.MaxDepth < 2 {
		t.Errorf("max depth = %d, want >= 2", res.MaxDepth)
	}
}

// TestExperimentsDeterministic locks in the bit-for-bit reproducibility
// EXPERIMENTS.md promises: same seed, same tables.
func TestExperimentsDeterministic(t *testing.T) {
	if a, b := RunE1(3, 5).Table.String(), RunE1(3, 5).Table.String(); a != b {
		t.Errorf("E1 diverged:\n%s\n---\n%s", a, b)
	}
	arms := []E5Arm{{Name: "drop-all", Policy: gateway.PolicyDropAll}}
	if a, b := RunE5(3, arms, 20*time.Second).Table.String(),
		RunE5(3, arms, 20*time.Second).Table.String(); a != b {
		t.Errorf("E5 diverged:\n%s\n---\n%s", a, b)
	}
	if a, b := RunE8(3, 8*time.Second).Table.String(), RunE8(3, 8*time.Second).Table.String(); a != b {
		t.Errorf("E8 diverged:\n%s\n---\n%s", a, b)
	}
	e10 := []E10Arm{{Name: "fast", TelescopeBits: 8, ReactionDelay: time.Minute}}
	if a, b := RunE10(3, e10, 10*time.Minute, 0.01).Table.String(),
		RunE10(3, e10, 10*time.Minute, 0.01).Table.String(); a != b {
		t.Errorf("E10 diverged:\n%s\n---\n%s", a, b)
	}
}

func TestStandardTraceAndTimeouts(t *testing.T) {
	trace := StandardTrace(1, time.Minute)
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
	if got := StandardTimeouts(); len(got) != 5 || got[len(got)-1] != 0 {
		t.Errorf("timeouts = %v", got)
	}
	_ = gateway.PolicyOpen
	_ = netsim.Addr(0)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
