package scenario

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"potemkin/internal/netsim"
	"potemkin/internal/sim"
)

func space(t *testing.T) netsim.Prefix {
	t.Helper()
	p, err := netsim.ParsePrefix("10.5.0.0/16")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuiltinsCompileDeterministically(t *testing.T) {
	sp := space(t)
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			a, err := Compile(Builtin(name), 7, sp)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Compile(Builtin(name), 7, sp)
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Records) == 0 {
				t.Fatal("no records compiled")
			}
			if len(a.Records) != len(b.Records) {
				t.Fatalf("record counts differ: %d vs %d", len(a.Records), len(b.Records))
			}
			for i := range a.Records {
				if !a.Records[i].Equal(&b.Records[i]) {
					t.Fatalf("record %d differs:\n%+v\n%+v", i, a.Records[i], b.Records[i])
				}
			}
			// Time-sorted, sources external, destinations monitored.
			for i, r := range a.Records {
				if i > 0 && r.At < a.Records[i-1].At {
					t.Fatalf("records not time-sorted at %d", i)
				}
				if sp.Contains(r.Src) {
					t.Fatalf("attacker source %s inside monitored space", r.Src)
				}
				if !sp.Contains(r.Dst) {
					t.Fatalf("campaign target %s outside monitored space", r.Dst)
				}
			}
			// A different seed perturbs the draw.
			c, err := Compile(Builtin(name), 8, sp)
			if err != nil {
				t.Fatal(err)
			}
			same := true
			for i := range a.Records {
				if !a.Records[i].Equal(&c.Records[i]) {
					same = false
					break
				}
			}
			if same {
				t.Fatal("seed change did not perturb the plan")
			}
		})
	}
}

func TestExploitRecordsCarryPayload(t *testing.T) {
	p, err := Compile(Builtin("multistage"), 1, space(t))
	if err != nil {
		t.Fatal(err)
	}
	exploits := 0
	for _, r := range p.Records {
		if len(r.Payload) == 0 {
			continue
		}
		exploits++
		if r.PayLen != uint16(len(r.Payload)) {
			t.Fatalf("PayLen %d != len(Payload) %d", r.PayLen, len(r.Payload))
		}
		if !bytes.Contains(r.Payload, []byte("MS04-011")) {
			t.Fatalf("exploit payload missing signature: %q", r.Payload)
		}
		if r.Flags != netsim.FlagSYN|netsim.FlagPSH {
			t.Fatalf("exploit flags = %x", r.Flags)
		}
	}
	if exploits != 6 {
		t.Fatalf("multistage should compile 6 exploit records, got %d", exploits)
	}
}

func TestLoadRoundTripAndRejects(t *testing.T) {
	s := Builtin("fingerprint")
	var buf bytes.Buffer
	if err := Save(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Hash() != s.Hash() {
		t.Fatal("round-trip changed the scenario")
	}

	for name, body := range map[string]string{
		"unknown field": `{"version":1,"name":"x","stagez":[]}`,
		"bad version":   `{"version":9,"name":"x","stages":[{"at_ms":0,"kind":"recon","count":1}]}`,
		"bad kind":      `{"version":1,"name":"x","stages":[{"at_ms":0,"kind":"ddos","count":1}]}`,
		"no stages":     `{"version":1,"name":"x","stages":[]}`,
		"bad base":      `{"version":1,"name":"x","guest":{"base":"plan9"},"stages":[{"at_ms":0,"kind":"recon","count":1}]}`,
		"c2-less port":  `{"version":1,"name":"x","guest":{"c2_port":443},"stages":[{"at_ms":0,"kind":"recon","count":1}]}`,
		"too many p2p":  `{"version":1,"name":"x","guest":{"p2p_peers":900},"stages":[{"at_ms":0,"kind":"recon","count":1}]}`,
		// More distinct sources than the attacker pool holds: Compile
		// would draw forever.
		"sources past the pool": `{"version":1,"name":"x","stages":[{"at_ms":0,"kind":"recon","count":1,"sources":70000}]}`,
		// Milliseconds whose nanoseconds overflow sim.Time would wrap
		// negative and fire at t=0.
		"at_ms past the clock":     `{"version":1,"name":"x","stages":[{"at_ms":9300000000000,"kind":"recon","count":1}]}`,
		"spread_ms past the clock": `{"version":1,"name":"x","stages":[{"at_ms":0,"kind":"recon","count":1,"spread_ms":9300000000000}]}`,
		"stage end past the clock": `{"version":1,"name":"x","stages":[{"at_ms":5000000000000,"kind":"recon","count":2,"spread_ms":5000000000000}]}`,
		"settle_ms past the clock": `{"version":1,"name":"x","stages":[{"at_ms":0,"kind":"recon","count":1}],"settle_ms":9300000000000}`,
	} {
		if _, err := Load(strings.NewReader(body)); err == nil {
			t.Errorf("%s: Load accepted %s", name, body)
		}
	}
	edge := `{"version":1,"name":"x","stages":[{"at_ms":9223372036854,"kind":"recon","count":1,"sources":65536}],"settle_ms":9223372036854}`
	if _, err := Load(strings.NewReader(edge)); err != nil {
		t.Errorf("Load rejected the bounds themselves: %v", err)
	}
}

func TestExploitNeedsVulnerability(t *testing.T) {
	s := Builtin("multistage")
	s.Guest.Base = "linux"
	s.Guest.C2Server, s.Guest.C2Port, s.Guest.BeaconPeriodMS = "", 0, 0
	if _, err := Compile(s, 1, space(t)); err == nil {
		t.Fatal("compiling an exploit stage against an invulnerable guest should fail")
	}
}

func TestLookupBuiltinAndFile(t *testing.T) {
	if _, err := Lookup("multistage"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup("no-such-scenario"); err == nil {
		t.Fatal("Lookup should reject unknown names")
	}
	path := t.TempDir() + "/s.json"
	var buf bytes.Buffer
	if err := Save(&buf, Builtin("p2p")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Lookup(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "p2p" {
		t.Fatalf("loaded %q", s.Name)
	}
}

func TestP2PFingerTables(t *testing.T) {
	sp := space(t)
	p, err := Compile(Builtin("p2p"), 3, sp)
	if err != nil {
		t.Fatal(err)
	}
	factory := p.PickTargetFor()
	if factory == nil {
		t.Fatal("p2p scenario should build a picker factory")
	}
	self := sp.Nth(100)
	pick := factory(self)
	rng := sim.NewRNG(5)
	seen := map[netsim.Addr]bool{}
	for i := 0; i < 4096; i++ {
		a := pick(rng)
		if !sp.Contains(a) {
			t.Fatalf("peer %s outside monitored space", a)
		}
		if a == self {
			t.Fatal("guest picked itself")
		}
		seen[a] = true
	}
	if len(seen) == 0 || len(seen) > 16 {
		t.Fatalf("finger table should bound the working set to <= 16 peers, saw %d", len(seen))
	}
	// Uniform scenarios keep the default pick.
	u, err := Compile(Builtin("multistage"), 3, sp)
	if err != nil {
		t.Fatal(err)
	}
	if u.PickTargetFor() != nil {
		t.Fatal("non-p2p scenario should not override the target picker")
	}
}

func TestFactsAreModeFree(t *testing.T) {
	p, err := Compile(Builtin("multistage"), 11, space(t))
	if err != nil {
		t.Fatal(err)
	}
	f := p.Facts("internal-reflect")
	if f.Scenario != "multistage" || f.Seed != 11 || f.Steps != len(p.Records) {
		t.Fatalf("facts: %+v", f)
	}
	last := time.Duration(p.Records[len(p.Records)-1].At).Milliseconds()
	if want := last + p.Settle.Milliseconds(); f.HorizonMS != want {
		t.Fatalf("horizon = %d, want last record %d + settle %d", f.HorizonMS, last, p.Settle.Milliseconds())
	}
}

// TestCountBounded: a campaign's stages send at most maxPackets between
// them, and Load refuses a document past that before anything compiles
// it, where Compile would try to hold every packet at once. The
// builtins and the committed scenarios/*.json stay well inside.
func TestCountBounded(t *testing.T) {
	stage := func(count int) string {
		return fmt.Sprintf(`{"at_ms":0,"kind":"recon","count":%d}`, count)
	}
	doc := func(stages ...string) string {
		return `{"version":1,"name":"x","stages":[` + strings.Join(stages, ",") + `]}`
	}
	for name, body := range map[string]string{
		"one huge stage":            doc(stage(9000000000000)),
		"two stages past the bound": doc(stage(maxPackets/2+1), stage(maxPackets/2)),
		"overflowing counts":        doc(stage(math.MaxInt), stage(math.MaxInt), stage(1)),
	} {
		if _, err := Load(strings.NewReader(body)); err == nil || !strings.Contains(err.Error(), "packets") {
			t.Errorf("%s: Load returned %v", name, err)
		}
	}
	if _, err := Load(strings.NewReader(doc(stage(maxPackets/2), stage(maxPackets/2)))); err != nil {
		t.Errorf("Load rejected the bound itself: %v", err)
	}
	for _, name := range Names() {
		if err := Builtin(name).Validate(); err != nil {
			t.Errorf("builtin %s: %v", name, err)
		}
	}
	files, _ := filepath.Glob("../../scenarios/*.json")
	if len(files) == 0 {
		t.Fatal("no committed scenario files")
	}
	for _, f := range files {
		if _, err := LoadFile(f); err != nil {
			t.Error(err)
		}
	}
}

// FuzzLoadScenario loads arbitrary documents, seeded with the
// committed scenarios, and compiles each one Load accepts: a valid
// scenario compiles, or fails with an error, to one record per packet
// its stages send; nothing panics.
func FuzzLoadScenario(f *testing.F) {
	files, _ := filepath.Glob("../../scenarios/*.json")
	for _, name := range files {
		b, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	sp := netsim.MustParsePrefix("10.5.0.0/16")
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := Load(bytes.NewReader(b))
		if err != nil {
			return
		}
		p, err := Compile(s, 1, sp)
		if err != nil {
			return
		}
		packets := 0
		for _, st := range s.Stages {
			packets += st.Count
		}
		if len(p.Records) != packets {
			t.Fatalf("%d stage packets compiled to %d records", packets, len(p.Records))
		}
	})
}
