package score

import (
	"bytes"
	"strings"
	"testing"

	"potemkin/internal/core"
	"potemkin/internal/metrics"
)

// totalsFor builds the summed counters of a small synthetic run.
func totalsFor(detectAtMS float64, detections, attempted, permitted, fp int, acts []float64) *core.Totals {
	var detect, deception metrics.Histogram
	if detections > 0 {
		detect.Observe(detectAtMS)
	}
	for _, a := range acts {
		deception.Observe(a)
	}
	t := &core.Totals{Detect: []*metrics.Histogram{&detect}, Deception: []*metrics.Histogram{&deception}}
	t.Gateway.DetectedInfected = uint64(detections)
	t.Gateway.EgressAttempted = uint64(attempted)
	t.Gateway.EgressPermitted = uint64(permitted)
	t.Guest.Fingerprinted = uint64(fp)
	t.Guest.CanariesOut = 7
	t.Farm.Infections = 3
	t.Host.Clones = 12
	return t
}

func TestComputeReadsTotals(t *testing.T) {
	facts := Facts{Scenario: "t", Version: 1, Seed: 9, Space: "10.5.0.0/16", Policy: "internal-reflect", Guest: "winxp", Steps: 10, HorizonMS: 5000}
	c := Compute(facts, totalsFor(250, 2, 40, 8, 1, []float64{30}))
	if c.Detections != 2 || c.FirstDetectMS != 250 {
		t.Fatalf("detection: %+v", c)
	}
	if c.EgressAttempted != 40 || c.EgressPermitted != 8 || c.LeakRatePct != 20 {
		t.Fatalf("containment: %+v", c)
	}
	if c.Fingerprints != 1 || c.DeceptionSteps != 30 || c.MeanSurvivalActs != 30 {
		t.Fatalf("deception: %+v", c)
	}
	if c.Canaries != 7 || c.Infections != 3 || c.Clones != 12 || c.ClonesPerCapture != 6 {
		t.Fatalf("capture: %+v", c)
	}
}

func TestNoDetectionsScoresMinusOne(t *testing.T) {
	c := Compute(Facts{Scenario: "quiet"}, totalsFor(0, 0, 0, 0, 0, nil))
	if c.FirstDetectMS != -1 {
		t.Fatalf("FirstDetectMS = %v, want -1", c.FirstDetectMS)
	}
	if c.LeakRatePct != 0 || c.ClonesPerCapture != 0 {
		t.Fatalf("derived rates should be 0 with empty denominators: %+v", c)
	}
}

// The property the cluster path relies on: scoring the sum of
// partitions' Totals equals merging per-partition scorecards, whichever
// partition detected first and whether or not one detected nothing.
func TestMergeMatchesSummedTotals(t *testing.T) {
	facts := Facts{Scenario: "u", Version: 1, Seed: 4}
	parts := []*core.Totals{
		totalsFor(0, 0, 5, 1, 0, nil),
		totalsFor(400, 1, 30, 3, 1, []float64{12}),
		totalsFor(150, 1, 10, 2, 2, []float64{5, 9}),
	}
	var sum core.Totals
	cards := make([]*Scorecard, len(parts))
	for i, p := range parts {
		sum.Add(p)
		cards[i] = Compute(facts, p)
	}
	fromSum := Compute(facts, &sum)
	merged, err := Merge(cards...)
	if err != nil {
		t.Fatal(err)
	}
	if *merged != *fromSum {
		t.Fatalf("Merge(cards) = %+v\nCompute(summed Totals) = %+v", merged, fromSum)
	}
	if merged.FirstDetectMS != 150 {
		t.Fatalf("first detect should take the earliest partition: %v", merged.FirstDetectMS)
	}
}

func TestMergeRejectsDifferentRuns(t *testing.T) {
	a := Compute(Facts{Scenario: "a"}, &core.Totals{})
	b := Compute(Facts{Scenario: "b"}, &core.Totals{})
	if _, err := Merge(a, b); err == nil {
		t.Fatal("merging cards with different facts should fail")
	}
	if _, err := Merge(); err == nil {
		t.Fatal("merging nothing should fail")
	}
}

func TestWriteJSONDeterministicAndRenders(t *testing.T) {
	c := Compute(Facts{Scenario: "t", Version: 1}, totalsFor(250, 2, 40, 8, 1, []float64{30}))
	var b1, b2 bytes.Buffer
	if err := c.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("WriteJSON is not deterministic")
	}
	var txt strings.Builder
	if err := c.Render(&txt); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"leak rate", "time to first detect", "clones per sample"} {
		if !strings.Contains(txt.String(), want) {
			t.Fatalf("Render missing %q:\n%s", want, txt.String())
		}
	}
}
