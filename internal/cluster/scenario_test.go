package cluster

import (
	"encoding/json"
	"testing"

	"potemkin"
	"potemkin/internal/scenario"
)

// TestClusterScorecardMatchesFacade closes the acceptance loop on the
// scenario engine: every builtin campaign at the same seed and shard
// count emits byte-identical scorecards, and every other artifact, from
// the engine sequentially and under Parallel, from a real coordinator
// and two workers over TCP loopback, and from the facade's RunScenario.
// The options are the committed scorecards' (the root's
// TestScenarioScorecardGolden).
func TestClusterScorecardMatchesFacade(t *testing.T) {
	for _, name := range scenario.Names() {
		t.Run(name, func(t *testing.T) {
			campaign, err := potemkin.LoadScenario(name)
			if err != nil {
				t.Fatal(err)
			}
			opts := potemkin.Options{
				Seed:           9,
				MonitoredSpace: "10.5.0.0/22",
				Servers:        4,
				GatewayShards:  2,
				Policy:         potemkin.InternalReflect,
				Scenario:       campaign,
			}
			runs := runModes(t, spec{opts: opts}, "seq", "par", "cluster", "facade")
			var card potemkin.Scorecard
			if err := json.Unmarshal(runs[0].art["scorecard"], &card); err != nil {
				t.Fatal(err)
			}
			if card.Infections == 0 {
				t.Errorf("scenario %s captured no infections:\n%s", name, runs[0].art["scorecard"])
			}
			for _, r := range runs[1:] {
				requireSame(t, runs[0], r)
			}
		})
	}
}
