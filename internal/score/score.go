// Package score turns a scenario run's counters into an effectiveness
// scorecard: how fast the farm detected the campaign, how much egress
// the containment policy leaked, how long the deception survived before
// guests fingerprinted the farm, and what the capture cost in cloned
// VMs. The card is computed from the shard domains' summed counters
// (core.Totals) — never from the telemetry registry, and never from
// wall-clock figures — so the same seed yields the same bytes under
// sequential, parallel, and cluster execution, with telemetry on or
// off: a cluster's coordinator sums its workers' per-shard Totals as
// the engine sums its domains'.
package score

import (
	"encoding/json"
	"fmt"
	"io"

	"potemkin/internal/core"
)

// Facts identifies the run being scored: scenario, seed, space, policy,
// and the campaign's shape. Facts must stay a pure function of the
// scenario and options — no shard counts, worker names, or other
// execution-mode details — so cards from different modes compare equal.
type Facts struct {
	Scenario  string `json:"scenario"`
	Version   int    `json:"version"`
	Seed      uint64 `json:"seed"`
	Space     string `json:"space"`
	Policy    string `json:"policy"`
	Guest     string `json:"guest"`
	Steps     int    `json:"steps"`      // attacker packets scheduled
	HorizonMS int64  `json:"horizon_ms"` // last step + settle time
}

// Scorecard is the effectiveness report for one scenario run. Raw
// fields are sums of deterministic counters; Derived fields are pure
// functions of the raw ones, recomputed by Compute and Merge so a
// merged card is exactly the card of the merged run.
type Scorecard struct {
	Facts Facts `json:"facts"`

	// Detection: how the gateway's scan detector fared.
	Detections    uint64  `json:"detections"`
	FirstDetectMS float64 `json:"first_detect_ms"` // -1 when nothing was detected

	// Containment: egress the policy permitted vs what VMs attempted.
	EgressAttempted uint64 `json:"egress_attempted"`
	EgressPermitted uint64 `json:"egress_permitted"`

	// Deception: guests probing for the farm and the C2 they ran.
	Canaries       uint64 `json:"canaries"`
	Beacons        uint64 `json:"beacons"`
	Fingerprints   uint64 `json:"fingerprints"`
	DeceptionSteps uint64 `json:"deception_steps"` // malicious actions observed before guests went quiet

	// Capture: what the farm caught and what it spent.
	Infections uint64 `json:"infections"`
	Clones     uint64 `json:"clones"`

	// Derived rates (recomputed from the raw fields above).
	LeakRatePct      float64 `json:"leak_rate_pct"`      // permitted/attempted
	MeanSurvivalActs float64 `json:"mean_survival_acts"` // deception steps per fingerprint
	ClonesPerCapture float64 `json:"clones_per_capture"` // clones per detected sample
}

// Compute builds a scorecard from the run's summed counters: the
// engine's Totals, or a cluster's Results.Totals.
func Compute(facts Facts, t *core.Totals) *Scorecard {
	c := &Scorecard{
		Facts:           facts,
		Detections:      t.Gateway.DetectedInfected,
		FirstDetectMS:   -1,
		EgressAttempted: t.Gateway.EgressAttempted,
		EgressPermitted: t.Gateway.EgressPermitted,
		Canaries:        t.Guest.CanariesOut,
		Beacons:         t.Guest.BeaconsOut,
		Fingerprints:    t.Guest.Fingerprinted,
		DeceptionSteps:  t.DeceptionActions(),
		Infections:      t.Farm.Infections,
		Clones:          t.Host.Clones,
	}
	if c.Detections > 0 {
		c.FirstDetectMS = t.FirstDetectMS()
	}
	c.derive()
	return c
}

// derive recomputes the rate fields from the raw sums.
func (c *Scorecard) derive() {
	c.LeakRatePct, c.MeanSurvivalActs, c.ClonesPerCapture = 0, 0, 0
	if c.EgressAttempted > 0 {
		c.LeakRatePct = 100 * float64(c.EgressPermitted) / float64(c.EgressAttempted)
	}
	if c.Fingerprints > 0 {
		c.MeanSurvivalActs = float64(c.DeceptionSteps) / float64(c.Fingerprints)
	}
	if c.Detections > 0 {
		c.ClonesPerCapture = float64(c.Clones) / float64(c.Detections)
	}
}

// Merge unions cards from partitions of one logical run (the
// core.Totals.Add analogue at scorecard level): counters add, first
// detection takes the earliest, rates are rederived from the merged
// sums. All cards must describe the same run — identical Facts.
func Merge(cards ...*Scorecard) (*Scorecard, error) {
	if len(cards) == 0 {
		return nil, fmt.Errorf("score: nothing to merge")
	}
	out := *cards[0]
	for _, c := range cards[1:] {
		if c.Facts != out.Facts {
			return nil, fmt.Errorf("score: merging cards from different runs: %+v vs %+v", out.Facts, c.Facts)
		}
		out.Detections += c.Detections
		out.EgressAttempted += c.EgressAttempted
		out.EgressPermitted += c.EgressPermitted
		out.Canaries += c.Canaries
		out.Beacons += c.Beacons
		out.Fingerprints += c.Fingerprints
		out.DeceptionSteps += c.DeceptionSteps
		out.Infections += c.Infections
		out.Clones += c.Clones
		if c.FirstDetectMS >= 0 && (out.FirstDetectMS < 0 || c.FirstDetectMS < out.FirstDetectMS) {
			out.FirstDetectMS = c.FirstDetectMS
		}
	}
	out.derive()
	return &out, nil
}

// WriteJSON renders the card as indented JSON with a trailing newline.
// The encoding is deterministic (fixed field order, no maps), so
// scorecards from different execution modes can be diffed byte-for-byte
// — the scenario smoke test does exactly that.
func (c *Scorecard) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Render writes the human-readable scorecard.
func (c *Scorecard) Render(w io.Writer) error {
	f := c.Facts
	first := "never"
	if c.FirstDetectMS >= 0 {
		first = fmt.Sprintf("%.3f ms", c.FirstDetectMS)
	}
	_, err := fmt.Fprintf(w, `scenario %q (v%d)  seed=%d  space=%s  policy=%s  guest=%s
campaign: %d attacker steps over %d ms

  detection
    samples detected       %d
    time to first detect   %s
  containment
    egress attempted       %d
    egress permitted       %d
    leak rate              %.2f%%
  deception
    canary probes          %d
    c2 beacons             %d
    farms fingerprinted    %d
    survival (mean acts)   %.1f
  capture cost
    infections captured    %d
    VMs cloned             %d
    clones per sample      %.1f
`,
		f.Scenario, f.Version, f.Seed, f.Space, f.Policy, f.Guest,
		f.Steps, f.HorizonMS,
		c.Detections, first,
		c.EgressAttempted, c.EgressPermitted, c.LeakRatePct,
		c.Canaries, c.Beacons, c.Fingerprints, c.MeanSurvivalActs,
		c.Infections, c.Clones, c.ClonesPerCapture)
	return err
}
