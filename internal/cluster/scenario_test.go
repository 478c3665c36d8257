package cluster

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"potemkin"
	"potemkin/internal/core"
	"potemkin/internal/farm"
	"potemkin/internal/gateway"
	"potemkin/internal/netsim"
	"potemkin/internal/scenario"
	"potemkin/internal/score"
	"potemkin/internal/telescope"
)

const (
	scenarioSeed  = 9
	scenarioSpace = "10.5.0.0/22"
)

// scenarioEngineConfig mirrors the facade's scenario wiring (and
// potemkind's cluster engineConfig) for one campaign, so the cluster
// run below is configured exactly as the facade oracle.
func scenarioEngineConfig(t *testing.T, sc *scenario.Scenario) (core.ShardEngineConfig, *scenario.Plan) {
	t.Helper()
	space, err := netsim.ParsePrefix(scenarioSpace)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := scenario.Compile(sc, scenarioSeed, space)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	gc := gateway.DefaultConfig()
	gc.Space = space
	gc.Policy = gateway.PolicyInternalReflect
	fc := farm.DefaultConfig()
	fc.Servers = 4
	fc.Profile = plan.Profile
	fc.PickTargetFor = plan.PickTargetFor()
	return core.ShardEngineConfig{
		Shards:   2,
		Parallel: true,
		Seed:     scenarioSeed,
		Gateway:  gc,
		Farm:     fc,
	}, plan
}

// startScenarioCluster is startCluster for campaign runs: both the
// coordinator and the workers build the scenario engine config (SPMD,
// like potemkind's cluster mode). Telemetry stays off: the card is
// scored from the shard Totals the workers ship.
func startScenarioCluster(t *testing.T, name string) *clusterHarness {
	t.Helper()
	const workers = 2
	ec, _ := scenarioEngineConfig(t, scenario.Builtin(name))
	tag := "scenario-test-" + name
	c, err := New(Config{
		Engine:            ec,
		ConfigTag:         tag,
		ListenAddr:        "127.0.0.1:0",
		Workers:           workers,
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  5 * time.Second,
		RecoveryWait:      10 * time.Second,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := c.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	h := &clusterHarness{c: c, errs: make([]error, workers), workers: workers}
	for i := 0; i < workers; i++ {
		i := i
		wec, _ := scenarioEngineConfig(t, scenario.Builtin(name))
		wc := WorkerConfig{
			Addr:              c.Addr().String(),
			Engine:            wec,
			ConfigTag:         tag,
			Name:              fmt.Sprintf("w%d", i),
			HeartbeatInterval: 50 * time.Millisecond,
			Logf:              t.Logf,
		}
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			h.errs[i] = RunWorker(wc)
		}()
	}
	if err := c.WaitReady(30 * time.Second); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	return h
}

// TestClusterScorecardMatchesFacade closes the acceptance loop on the
// scenario engine: the same campaign at the same seed and shard count,
// run once through the potemkin facade (sequential shard engine) and
// once through a real coordinator + two workers over TCP loopback, must
// emit byte-identical scorecards.
func TestClusterScorecardMatchesFacade(t *testing.T) {
	for _, name := range scenario.Names() {
		t.Run(name, func(t *testing.T) {
			campaign, err := potemkin.LoadScenario(name)
			if err != nil {
				t.Fatal(err)
			}
			hf, err := potemkin.New(potemkin.Options{
				Seed:           scenarioSeed,
				MonitoredSpace: scenarioSpace,
				Servers:        4,
				GatewayShards:  2,
				Policy:         potemkin.InternalReflect,
				Scenario:       campaign,
			})
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := hf.RunScenario()
			hf.Close()
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := oracle.WriteJSON(&want); err != nil {
				t.Fatal(err)
			}

			_, plan := scenarioEngineConfig(t, scenario.Builtin(name))
			h := startScenarioCluster(t, name)
			defer h.shutdown(t)
			if _, err := h.c.Replay(&telescope.SliceSource{Recs: plan.Records}, nil, plan.Settle); err != nil {
				t.Fatalf("cluster replay: %v", err)
			}
			res, err := h.c.Results()
			if err != nil {
				t.Fatalf("cluster results: %v", err)
			}
			card := score.Compute(plan.Facts("internal-reflect"), &res.Totals)
			var got bytes.Buffer
			if err := card.WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want.Bytes(), got.Bytes()) {
				t.Errorf("cluster scorecard differs from facade:\n--- facade\n%s--- cluster\n%s", want.Bytes(), got.Bytes())
			}
		})
	}
}
