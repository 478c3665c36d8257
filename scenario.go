package potemkin

// Scenario-driven campaigns through the facade: Options.Scenario arms
// a compiled attacker campaign, RunScenario replays it and returns the
// effectiveness scorecard. The same (scenario, seed, options) always
// produces a byte-identical scorecard — with or without
// Options.Parallel, and in potemkind's cluster mode — because the plan
// is pure data, the engine is deterministic, and the card reads only
// the farm's own counters (core.Totals), never the telemetry registry.

import (
	"errors"

	"potemkin/internal/scenario"
	"potemkin/internal/score"
)

// Scenario is a declarative attacker campaign: versioned JSON (or a
// builtin family) describing staged recon and exploit waves plus the
// guest behavior they trigger — C2 beaconing, honeypot-fingerprinting
// canaries, structured P2P lateral movement. See internal/scenario.
type Scenario = scenario.Scenario

// Scorecard is a scenario run's effectiveness report: time to
// detection, containment leak rate, deception survival, and resource
// cost per captured sample. See internal/score.
type Scorecard = score.Scorecard

// LoadScenario resolves arg as a builtin scenario family (an unknown
// name's error lists them) or as a path to a scenario JSON file.
func LoadScenario(arg string) (*Scenario, error) {
	return scenario.Lookup(arg)
}

// RunScenario replays the farm's compiled campaign — every packet
// scheduled by Options.Scenario, then the scenario's settle period —
// and scores the run. Replay options (WithHalt for signal handling)
// pass through; the epilogue is the scenario's settle period unless an
// explicit WithEpilogue overrides it. Requires Options.Scenario.
func (hf *Honeyfarm) RunScenario(opts ...ReplayOption) (*Scorecard, error) {
	if hf.plan == nil {
		return nil, errors.New("potemkin: RunScenario requires Options.Scenario")
	}
	ropts := append([]ReplayOption{WithEpilogue(hf.plan.Settle)}, opts...)
	if _, err := hf.Replay(SliceSource(hf.plan.Records), ropts...); err != nil {
		return nil, err
	}
	t := hf.eng.Totals()
	return score.Compute(hf.plan.Facts(hf.opts.Policy.String()), &t), nil
}
