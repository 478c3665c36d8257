package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"potemkin/internal/trace"
)

func chaosTraceConfig() ChaosConfig {
	return ChaosConfig{Seed: 7, Servers: 3, Duration: 30 * time.Second}
}

// Same seed, same trace — byte for byte. This is the property that
// makes traces diffable across chaos replays, and it exercises every
// instrumented layer at once (gateway bind/spawn, farm placement, vmm
// clone, crash teardown, recycle).
func TestChaosTraceByteIdentical(t *testing.T) {
	run := func() []byte {
		var buf bytes.Buffer
		cfg := chaosTraceConfig()
		cfg.TraceOut = &buf
		RunChaos(cfg)
		return buf.Bytes()
	}
	a := run()
	b := run()
	if len(a) == 0 {
		t.Fatal("trace output empty")
	}
	if !bytes.Equal(a, b) {
		// Find the first differing line for a useful failure message.
		al := bytes.Split(a, []byte("\n"))
		bl := bytes.Split(b, []byte("\n"))
		for i := range al {
			if i >= len(bl) || !bytes.Equal(al[i], bl[i]) {
				t.Fatalf("traces diverge at line %d:\n%s\n---\n%s", i+1, al[i], bl[i])
			}
		}
		t.Fatalf("traces differ in length: %d vs %d bytes", len(a), len(b))
	}
}

// The trace must reconstruct binding lifecycles: every non-root span
// references a parent in the same trace, and every binding root that
// reached the VM has spawn and active children plus the folded
// forensic events. Each arm runs on its own engine, whose tracer
// numbers spans and traces from 1, so parents resolve within the arm's
// segment: the records from its "arm-start" instant to the next.
func TestChaosTraceReconstructsLifecycles(t *testing.T) {
	var buf bytes.Buffer
	cfg := chaosTraceConfig()
	cfg.TraceOut = &buf
	res := RunChaos(cfg)
	recs, err := trace.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}

	var arms []string
	var segments [][]trace.Record
	for _, r := range recs {
		if r.Name == "arm-start" {
			arms = append(arms, r.Attr("arm"))
			segments = append(segments, nil)
		}
		if len(segments) == 0 {
			t.Fatalf("record before the first arm-start: %+v", r)
		}
		segments[len(segments)-1] = append(segments[len(segments)-1], r)
	}
	if want := []string{"baseline", fmt.Sprintf("crash-server-%d", cfg.CrashServer)}; !slices.Equal(arms, want) {
		t.Fatalf("trace segments %q, want %q", arms, want)
	}

	var roots, actives, clones int
	for _, seg := range segments {
		byID := make(map[uint64]*trace.Record, len(seg))
		for i := range seg {
			byID[seg[i].Span] = &seg[i]
		}
		for i := range seg {
			r := &seg[i]
			if r.Parent != 0 {
				p := byID[r.Parent]
				if p == nil {
					t.Fatalf("span %d (%s) has dangling parent %d", r.Span, r.Name, r.Parent)
				}
				if p.Trace != r.Trace {
					t.Fatalf("span %d crosses traces: %d vs parent's %d", r.Span, r.Trace, p.Trace)
				}
			}
			switch r.Name {
			case "binding":
				roots++
				if r.Attr("addr") == "" {
					t.Fatalf("binding root without addr attr: %+v", r)
				}
			case "active":
				actives++
			case "clone":
				clones++
			}
		}
	}
	if roots == 0 || actives == 0 || clones == 0 {
		t.Fatalf("lifecycle spans missing: %d bindings, %d actives, %d clones", roots, actives, clones)
	}
	// Both arms traced: binding roots should cover baseline + faulted.
	wantMin := res.Baseline.BindingsCreated + res.Faulted.BindingsCreated
	if uint64(roots) != wantMin {
		t.Fatalf("binding roots %d, want %d (both arms' BindingsCreated)", roots, wantMin)
	}
}

// Turning tracing on must not perturb the simulation: every stat and
// the forensic-log fingerprint must match a tracing-off run with the
// same seed. (The tracing-off arm equals the pre-tracing baseline by
// construction — the off path is a nil check.)
func TestChaosTracingDoesNotPerturb(t *testing.T) {
	off := RunChaos(chaosTraceConfig())
	var buf bytes.Buffer
	cfg := chaosTraceConfig()
	cfg.TraceOut = &buf
	on := RunChaos(cfg)

	if off.Baseline != on.Baseline {
		t.Fatalf("baseline arm differs with tracing on:\noff: %+v\non:  %+v", off.Baseline, on.Baseline)
	}
	if off.Faulted != on.Faulted {
		t.Fatalf("faulted arm differs with tracing on:\noff: %+v\non:  %+v", off.Faulted, on.Faulted)
	}
}
