package cluster

import (
	"bytes"
	"testing"

	"potemkin"
	"potemkin/internal/scenario"
)

// TestClusterScorecardMatchesFacade closes the acceptance loop on the
// scenario engine: the same campaign at the same seed and shard count,
// run once through the potemkin facade's RunScenario and once through a
// real coordinator + two workers over TCP loopback, must emit
// byte-identical scorecards. The facade's card is the harness's
// sequential one, and the cluster run matches that in every artifact.
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
			hf, err := potemkin.New(opts)
			if err != nil {
				t.Fatal(err)
			}
			card, err := hf.RunScenario()
			hf.Close()
			if err != nil {
				t.Fatal(err)
			}
			var facade bytes.Buffer
			if err := card.WriteJSON(&facade); err != nil {
				t.Fatal(err)
			}
			runs := runModes(t, spec{opts: opts}, "seq", "cluster")
			if !bytes.Equal(facade.Bytes(), runs[0].art["scorecard"]) {
				t.Errorf("the engine's scorecard differs from the facade's:\n--- facade\n%s--- engine\n%s", facade.Bytes(), runs[0].art["scorecard"])
			}
			requireSame(t, runs[0], runs[1])
		})
	}
}
