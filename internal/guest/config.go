package guest

import (
	"encoding/json"
	"fmt"
	"io"

	"potemkin/internal/netsim"
)

// Profile serialization: operators describe custom guest personalities
// as JSON and load them into potemkind, rather than recompiling. The
// wire format is the Profile struct itself; Validate gates what a
// loaded profile may claim.

// SaveProfile writes p as indented JSON.
func SaveProfile(w io.Writer, p *Profile) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// LoadProfile reads and validates a JSON profile.
func LoadProfile(r io.Reader) (*Profile, error) {
	var p Profile
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("guest: parsing profile: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// maxRatePerSec bounds a profile's event rates: a timer waits an
// exponential interval of mean 1e9/rate ns, truncated to whole
// nanoseconds. Above one event a nanosecond nearly every wait truncates
// to 0, so the timer refires at one instant and simulated time stops.
const maxRatePerSec = 1e9

// maxBurstPages bounds a profile's burst sizes: a burst draws and writes
// one touch per page it asks for, at every clone (InitialBurstPages) and
// every infection (InfectionBurstPages), so a JSON profile asking for
// 10^9 would cost 10^9 draws and writes each time. The default image
// (farm.DefaultImage) has 32,768 pages, so a larger burst asks for more
// touches than there are pages to dirty; builtin profiles ask for 24 to
// 220.
const maxBurstPages = 32768

// Validate checks a profile for internal consistency.
func (p *Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("guest: profile has no name")
	}
	seen := map[[2]uint16]bool{}
	vulns := 0
	for i, s := range p.Services {
		if s.Port == 0 {
			return fmt.Errorf("guest: profile %q service %d has port 0", p.Name, i)
		}
		if s.Proto != netsim.ProtoTCP && s.Proto != netsim.ProtoUDP {
			return fmt.Errorf("guest: profile %q service %d has protocol %v", p.Name, i, s.Proto)
		}
		key := [2]uint16{uint16(s.Proto), s.Port}
		if seen[key] {
			return fmt.Errorf("guest: profile %q duplicates %v/%d", p.Name, s.Proto, s.Port)
		}
		seen[key] = true
		if s.Vulnerable {
			vulns++
			if len(s.ExploitSig) == 0 {
				return fmt.Errorf("guest: profile %q vulnerable service %v/%d has no exploit signature",
					p.Name, s.Proto, s.Port)
			}
		}
	}
	if vulns > 1 {
		return fmt.Errorf("guest: profile %q has %d vulnerable services; at most one is supported", p.Name, vulns)
	}
	for _, r := range []struct {
		field string
		v     float64
	}{
		{"TouchRatePerSec", p.TouchRatePerSec},
		{"ScanRatePerSec", p.ScanRatePerSec},
		{"CanaryRatePerSec", p.CanaryRatePerSec},
	} {
		if !(r.v >= 0 && r.v <= maxRatePerSec) { // NaN fails both
			return fmt.Errorf("guest: profile %q has out-of-range %s %v (want 0 to %g per second)",
				p.Name, r.field, r.v, maxRatePerSec)
		}
	}
	if !(p.WidePageProb >= 0 && p.WidePageProb <= 1) {
		return fmt.Errorf("guest: profile %q has out-of-range WidePageProb %v", p.Name, p.WidePageProb)
	}
	if p.InitialBurstPages < 0 || p.WorkingSetPages < 0 || p.InfectionBurstPages < 0 {
		return fmt.Errorf("guest: profile %q has a negative page count (InitialBurstPages %d, WorkingSetPages %d, InfectionBurstPages %d)",
			p.Name, p.InitialBurstPages, p.WorkingSetPages, p.InfectionBurstPages)
	}
	for _, b := range []struct {
		field string
		n     int
	}{
		{"InitialBurstPages", p.InitialBurstPages},
		{"InfectionBurstPages", p.InfectionBurstPages},
	} {
		if b.n > maxBurstPages {
			return fmt.Errorf("guest: profile %q has out-of-range %s %d (want at most %d pages)",
				p.Name, b.field, b.n, maxBurstPages)
		}
	}
	if p.ScanRatePerSec > 0 {
		if p.ScanDstPort == 0 {
			return fmt.Errorf("guest: profile %q scans but has no scan port", p.Name)
		}
		if p.ExploitPayload(0) == nil {
			return fmt.Errorf("guest: profile %q scans but has no vulnerability to propagate", p.Name)
		}
	}
	if p.PayloadHost != "" && p.PayloadServer != 0 {
		return fmt.Errorf("guest: profile %q sets both PayloadHost and PayloadServer", p.Name)
	}
	if p.CanaryTimeoutMS < 0 || p.FingerprintThreshold < 0 {
		return fmt.Errorf("guest: profile %q has negative fingerprinting parameters", p.Name)
	}
	if p.BeaconPeriodMS < 0 {
		return fmt.Errorf("guest: profile %q has negative beacon period", p.Name)
	}
	if p.C2Server == 0 && (p.C2Port != 0 || p.BeaconPeriodMS != 0) {
		return fmt.Errorf("guest: profile %q configures C2 beaconing without a C2Server", p.Name)
	}
	return nil
}
