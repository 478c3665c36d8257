package potemkin

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"potemkin/internal/guest"
	"potemkin/internal/scenario"
)

var updateCards = flag.Bool("update", false, "rewrite testdata/scorecards from this run")

// scenarioCard runs one scenario end to end and returns the rendered
// scorecard JSON.
func scenarioCard(t *testing.T, opts Options) (*Scorecard, []byte) {
	t.Helper()
	hf, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer hf.Close()
	card, err := hf.RunScenario()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := card.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return card, buf.Bytes()
}

// TestScenarioSequentialMatchesParallel: every builtin family's
// scorecard is the same bytes from the facade's sequential and Parallel
// RunScenario at the committed scorecards' options, and a same-seed
// rerun reproduces them. internal/cluster's
// TestClusterScorecardMatchesFacade holds the engine and cluster modes
// to the same bytes.
func TestScenarioSequentialMatchesParallel(t *testing.T) {
	for _, name := range scenario.Names() {
		t.Run(name, func(t *testing.T) {
			opts := goldenOptions(t, name)
			seqCard, seqJSON := scenarioCard(t, opts)
			if seqCard.Infections == 0 {
				t.Errorf("scenario %s captured no infections:\n%s", name, seqJSON)
			}
			par := opts
			par.Parallel = true
			if _, parJSON := scenarioCard(t, par); !bytes.Equal(seqJSON, parJSON) {
				t.Errorf("scorecards differ between sequential and parallel:\n--- sequential\n%s--- parallel\n%s", seqJSON, parJSON)
			}
			if _, again := scenarioCard(t, opts); !bytes.Equal(seqJSON, again) {
				t.Error("same-seed rerun changed the scorecard")
			}
		})
	}
}

// goldenOptions is the configuration the committed scorecards were
// written with, the one TestClusterScorecardMatchesFacade runs in
// internal/cluster.
func goldenOptions(t *testing.T, name string) Options {
	t.Helper()
	sc, err := LoadScenario(name)
	if err != nil {
		t.Fatal(err)
	}
	return Options{
		Seed:           9,
		MonitoredSpace: "10.5.0.0/22",
		Servers:        4,
		GatewayShards:  2,
		Policy:         InternalReflect,
		Scenario:       sc,
	}
}

// TestScenarioScorecardGolden pins every builtin family's scorecard to
// the bytes in testdata/scorecards: a change to how the card is summed
// or read must leave it byte-equal. -update rewrites the files.
func TestScenarioScorecardGolden(t *testing.T) {
	for _, name := range scenario.Names() {
		t.Run(name, func(t *testing.T) {
			_, got := scenarioCard(t, goldenOptions(t, name))
			path := filepath.Join("testdata", "scorecards", name+".json")
			if *updateCards {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("scorecard differs from %s:\n--- want\n%s--- got\n%s", path, want, got)
			}
		})
	}
}

// TestScenarioLeavesTelemetryOff: a scenario run builds no registry
// unless Options.Metrics asks for one, and the card it scores is the
// same bytes either way.
func TestScenarioLeavesTelemetryOff(t *testing.T) {
	opts := goldenOptions(t, "multistage")
	hf, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer hf.Close()
	if hf.metrics != nil {
		t.Fatal("a scenario run without Options.Metrics built a telemetry registry")
	}
	card, err := hf.RunScenario()
	if err != nil {
		t.Fatal(err)
	}
	var off bytes.Buffer
	if err := card.WriteJSON(&off); err != nil {
		t.Fatal(err)
	}
	opts.Metrics = true
	_, on := scenarioCard(t, opts)
	if !bytes.Equal(off.Bytes(), on) {
		t.Errorf("telemetry changed the scorecard:\n--- off\n%s--- on\n%s", off.Bytes(), on)
	}
}

func TestMultistageScoresDetectionAndC2(t *testing.T) {
	sc, err := LoadScenario("multistage")
	if err != nil {
		t.Fatal(err)
	}
	card, js := scenarioCard(t, Options{Seed: 3, MonitoredSpace: "10.5.0.0/22", Policy: InternalReflect, Scenario: sc})
	if card.Detections == 0 || card.FirstDetectMS < 0 {
		t.Errorf("campaign should be detected:\n%s", js)
	}
	if card.Beacons == 0 {
		t.Errorf("infected guests should beacon C2:\n%s", js)
	}
	if card.EgressAttempted == 0 {
		t.Errorf("beacons and scans should attempt egress:\n%s", js)
	}
	if card.Facts.Policy != "internal-reflect" || card.Facts.Scenario != "multistage" {
		t.Errorf("facts: %+v", card.Facts)
	}
}

// Under drop-all every canary vanishes, so fingerprinting malware
// concludes it is jailed; under internal reflection the canaries are
// answered by impersonating VMs and the deception survives longer.
func TestFingerprintScenarioScoresDeception(t *testing.T) {
	sc, err := LoadScenario("fingerprint")
	if err != nil {
		t.Fatal(err)
	}
	drop, dropJS := scenarioCard(t, Options{Seed: 3, MonitoredSpace: "10.5.0.0/22", Policy: DropAll, Scenario: sc})
	if drop.Fingerprints == 0 {
		t.Errorf("drop-all should be fingerprinted:\n%s", dropJS)
	}
	if drop.Canaries == 0 {
		t.Errorf("no canaries went out:\n%s", dropJS)
	}
	refl, _ := scenarioCard(t, Options{Seed: 3, MonitoredSpace: "10.5.0.0/22", Policy: InternalReflect, Scenario: sc})
	if refl.Fingerprints > drop.Fingerprints {
		t.Errorf("internal reflection should survive fingerprinting at least as long as drop-all (refl %d, drop %d)",
			refl.Fingerprints, drop.Fingerprints)
	}
}

func TestP2PScenarioPropagatesInternally(t *testing.T) {
	sc, err := LoadScenario("p2p")
	if err != nil {
		t.Fatal(err)
	}
	card, js := scenarioCard(t, Options{Seed: 3, MonitoredSpace: "10.5.0.0/22", Policy: DropAll, Scenario: sc})
	// 4 seed exploits; overlay lateral movement must spread beyond them.
	if card.Infections <= 4 {
		t.Errorf("overlay propagation should spread past the %d seeds:\n%s", 4, js)
	}
}

func TestRunScenarioRequiresScenario(t *testing.T) {
	hf := MustNew(Options{})
	defer hf.Close()
	if _, err := hf.RunScenario(); err == nil {
		t.Fatal("RunScenario without Options.Scenario should fail")
	}
}

func TestScenarioOptionConflicts(t *testing.T) {
	sc, err := LoadScenario("p2p")
	if err != nil {
		t.Fatal(err)
	}
	if err := (Options{Scenario: sc, GuestProfile: guest.WindowsXP()}).Validate(); err == nil {
		t.Fatal("Scenario+GuestProfile should not validate")
	}
	if err := (Options{Scenario: sc, Guest: GuestSQLServer}).Validate(); err == nil {
		t.Fatal("Scenario+Guest should not validate")
	}
	bad := *sc
	bad.Stages = nil
	if err := (Options{Scenario: &bad}).Validate(); err == nil {
		t.Fatal("invalid scenario should not validate")
	}
}
