package guest

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"potemkin/internal/netsim"
)

func TestProfileJSONRoundTrip(t *testing.T) {
	for _, p := range []*Profile{WindowsXP(), SQLServer(), LinuxServer(), MultiStageDNS("x.example")} {
		var buf bytes.Buffer
		if err := SaveProfile(&buf, p); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		got, err := LoadProfile(&buf)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if got.Name != p.Name || len(got.Services) != len(p.Services) ||
			got.ScanRatePerSec != p.ScanRatePerSec || got.TTL != p.TTL ||
			got.PayloadHost != p.PayloadHost {
			t.Errorf("%s round trip diverged: %+v", p.Name, got)
		}
		for i := range p.Services {
			if !bytes.Equal(got.Services[i].ExploitSig, p.Services[i].ExploitSig) {
				t.Errorf("%s: service %d signature lost", p.Name, i)
			}
		}
	}
}

func TestStockProfilesValidate(t *testing.T) {
	for _, p := range []*Profile{WindowsXP(), SQLServer(), LinuxServer(),
		MultiStage(1), MultiStageDNS("x.example")} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Profile)
		want   string
	}{
		{"no name", func(p *Profile) { p.Name = "" }, "no name"},
		{"port zero", func(p *Profile) { p.Services[0].Port = 0 }, "port 0"},
		{"bad proto", func(p *Profile) { p.Services[0].Proto = netsim.ProtoGRE }, "protocol"},
		{"duplicate service", func(p *Profile) { p.Services = append(p.Services, p.Services[0]) }, "duplicates"},
		{"vuln no sig", func(p *Profile) { p.Services[2].ExploitSig = nil }, "no exploit signature"},
		{"two vulns", func(p *Profile) {
			p.Services[0].Vulnerable = true
			p.Services[0].ExploitSig = []byte("x")
		}, "at most one"},
		{"negative rate", func(p *Profile) { p.TouchRatePerSec = -1 }, "out-of-range"},
		{"touch rate past 1/ns", func(p *Profile) { p.TouchRatePerSec = 1e12 }, "out-of-range TouchRatePerSec"},
		{"scan rate NaN", func(p *Profile) { p.ScanRatePerSec = math.NaN() }, "out-of-range ScanRatePerSec"},
		{"scan rate infinite", func(p *Profile) { p.ScanRatePerSec = math.Inf(1) }, "out-of-range ScanRatePerSec"},
		{"canary rate past 1/ns", func(p *Profile) { p.CanaryRatePerSec = 2e9 }, "out-of-range CanaryRatePerSec"},
		{"negative canary rate", func(p *Profile) { p.CanaryRatePerSec = -1 }, "out-of-range CanaryRatePerSec"},
		{"bad prob", func(p *Profile) { p.WidePageProb = 1.5 }, "out-of-range"},
		{"NaN prob", func(p *Profile) { p.WidePageProb = math.NaN() }, "out-of-range"},
		{"negative initial burst", func(p *Profile) { p.InitialBurstPages = -5 }, "negative page count"},
		{"negative working set", func(p *Profile) { p.WorkingSetPages = -1 }, "negative page count"},
		{"negative infection burst", func(p *Profile) { p.InfectionBurstPages = -1 }, "negative page count"},
		{"initial burst past the image", func(p *Profile) { p.InitialBurstPages = maxBurstPages + 1 }, "out-of-range InitialBurstPages"},
		{"infection burst past the image", func(p *Profile) { p.InfectionBurstPages = 1e9 }, "out-of-range InfectionBurstPages"},
		{"scan no port", func(p *Profile) { p.ScanDstPort = 0 }, "no scan port"},
		{"both payload fields", func(p *Profile) {
			p.PayloadHost = "a.b"
			p.PayloadServer = 1
		}, "both"},
	}
	for _, c := range cases {
		p := WindowsXP()
		c.mutate(p)
		err := p.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.want)
		}
	}
}

// TestLoadProfileRejectsRunawayInput: a profile dumped from winxp with
// one field changed used to load and then hang the run (a touch every
// 1e-3 ns truncates to a touch every 0 ns), run without a word on a
// negative burst, or draw and write 10^9 touches at every clone. All
// now fail at load.
func TestLoadProfileRejectsRunawayInput(t *testing.T) {
	for _, c := range []struct {
		name   string
		mutate func(*Profile)
		want   string
	}{
		{"TouchRatePerSec 1e12", func(p *Profile) { p.TouchRatePerSec = 1e12 }, "TouchRatePerSec"},
		{"InitialBurstPages -5", func(p *Profile) { p.InitialBurstPages = -5 }, "InitialBurstPages -5"},
		{"InitialBurstPages 1e9", func(p *Profile) { p.InitialBurstPages = 1e9 }, "InitialBurstPages 1000000000"},
	} {
		p := WindowsXP()
		c.mutate(p)
		var buf bytes.Buffer
		if err := SaveProfile(&buf, p); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadProfile(&buf); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.want)
		}
	}
}

func TestLoadProfileRejectsGarbage(t *testing.T) {
	if _, err := LoadProfile(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := LoadProfile(strings.NewReader(`{"Name":"x","Bogus":1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := LoadProfile(strings.NewReader(`{"Name":""}`)); err == nil {
		t.Error("invalid profile accepted")
	}
}

func TestLoadedProfileWorksEndToEnd(t *testing.T) {
	// A custom personality defined entirely via JSON.
	js := `{
		"Name": "custom-ftp",
		"TTL": 255,
		"TCPWindow": 4096,
		"Services": [
			{"Port": 21, "Proto": 6, "Vulnerable": true, "ExploitSig": "RlRQIG92ZXJmbG93"}
		],
		"InitialBurstPages": 4,
		"ScanRatePerSec": 10,
		"ScanDstPort": 21,
		"ScanProto": 6
	}`
	p, err := LoadProfile(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	r := newRig(t, p, Hooks{})
	// Fingerprint honored.
	r.deliver(netsim.TCPSyn(6, r.in.IP, 1000, 21, 1))
	if got := r.out[0]; got.TTL != 255 || got.Window != 4096 {
		t.Errorf("fingerprint: ttl=%d win=%d", got.TTL, got.Window)
	}
	// Exploit signature (base64 of "FTP overflow") infects.
	exploit := netsim.TCPSyn(6, r.in.IP, 1000, 21, 2)
	exploit.Payload = p.ExploitPayload(0)
	r.deliver(exploit)
	if !r.in.Infected {
		t.Error("custom profile exploit did not infect")
	}
}
