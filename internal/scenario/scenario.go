// Package scenario is the deterministic attacker-campaign engine: a
// declarative, versioned description of a multi-stage attack — recon
// sweeps, exploit waves, and the guest-side behavior they trigger
// (C2 beaconing, honeypot fingerprinting, structured P2P lateral
// movement) — compiled into a time-sorted packet plan that replays
// byte-identically under the sequential, parallel, and cluster
// engines. Scenario files are plain JSON (stdlib-parseable, no schema
// tooling); three builtin families ship compiled in so the CLI and
// tests never depend on file paths.
package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sort"

	"potemkin/internal/guest"
	"potemkin/internal/netsim"
)

// Version is the scenario format version this package reads and the
// builtins declare. Bump only with a migration path: files carry their
// version and Load rejects ones this code does not understand.
const Version = 1

// Stage is one externally-driven wave of the campaign. Steps are
// spaced over [AtMS, AtMS+SpreadMS) at a constant rate (all at AtMS
// when SpreadMS is 0), rotating across Sources distinct attacker
// addresses.
type Stage struct {
	// AtMS is the stage's start, in milliseconds from campaign start.
	AtMS int64 `json:"at_ms"`
	// Kind is "recon" (SYN probes, no payload) or "exploit" (the guest
	// profile's exploit payload at its vulnerable service).
	Kind string `json:"kind"`
	// Count is how many packets the stage sends.
	Count int `json:"count"`
	// Sources is how many distinct attacker addresses the stage rotates
	// through (default 1).
	Sources int `json:"sources,omitempty"`
	// Port overrides the destination port for recon stages; 0 probes
	// the guest's vulnerable port.
	Port uint16 `json:"port,omitempty"`
	// SpreadMS spaces the stage's packets over this window.
	SpreadMS int64 `json:"spread_ms,omitempty"`
}

// GuestSpec derives the campaign's guest personality from a stock base
// profile plus behavioral overrides. The zero value means "the base
// profile, unchanged".
type GuestSpec struct {
	// Base names the stock personality: "winxp" (default), "sqlserver",
	// or "linux".
	Base string `json:"base,omitempty"`
	// ScanRatePerSec overrides the base scan rate when > 0; < 0
	// disables scanning; 0 keeps the base rate.
	ScanRatePerSec float64 `json:"scan_rate_per_sec,omitempty"`

	// Fingerprinting: infected guests probe random external addresses
	// with canary connections and go quiet once FingerprintThreshold
	// consecutive canaries vanish (see guest.Profile).
	CanaryRatePerSec     float64 `json:"canary_rate_per_sec,omitempty"`
	CanaryPort           uint16  `json:"canary_port,omitempty"`
	CanaryTimeoutMS      int     `json:"canary_timeout_ms,omitempty"`
	FingerprintThreshold int     `json:"fingerprint_threshold,omitempty"`

	// C2: infected guests beacon this external server until quiet.
	C2Server       string `json:"c2_server,omitempty"`
	C2Port         uint16 `json:"c2_port,omitempty"`
	BeaconPeriodMS int    `json:"beacon_period_ms,omitempty"`

	// P2PPeers > 0 switches lateral movement from uniform scanning to a
	// structured overlay: each infected guest targets a Chord-style
	// finger table of this many peers inside the monitored space.
	P2PPeers int `json:"p2p_peers,omitempty"`
}

// Scenario is one declarative attacker campaign.
type Scenario struct {
	Version int       `json:"version"`
	Name    string    `json:"name"`
	Notes   string    `json:"notes,omitempty"`
	Guest   GuestSpec `json:"guest"`
	Stages  []Stage   `json:"stages"`
	// SettleMS keeps the simulation running after the last stage so
	// infections propagate, beacons fire, and detections land. Default
	// 20000.
	SettleMS int64 `json:"settle_ms,omitempty"`
}

// Validate reports every problem with the scenario at once, one per
// line, in the collect-all style of potemkin.Options.Validate.
func (s *Scenario) Validate() error {
	var errs []error
	add := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("scenario: "+format, args...))
	}
	if s.Version != Version {
		add("version %d is not supported (this build reads version %d)", s.Version, Version)
	}
	if s.Name == "" {
		add("scenario has no name")
	}
	if len(s.Stages) == 0 {
		add("%q has no stages", s.Name)
	}
	for i, st := range s.Stages {
		switch st.Kind {
		case "recon", "exploit":
		default:
			add("%q stage %d has unknown kind %q (want recon or exploit)", s.Name, i, st.Kind)
		}
		if st.Count <= 0 {
			add("%q stage %d has count %d", s.Name, i, st.Count)
		}
		if st.AtMS < 0 || st.SpreadMS < 0 {
			add("%q stage %d has negative timing", s.Name, i)
		}
		if st.Sources < 0 {
			add("%q stage %d has negative sources", s.Name, i)
		}
		if st.Kind == "exploit" && st.Port != 0 {
			add("%q stage %d sets a port on an exploit stage (the vulnerable service decides)", s.Name, i)
		}
	}
	g := s.Guest
	switch g.Base {
	case "", "winxp", "sqlserver", "linux":
	default:
		add("%q names unknown guest base %q (want winxp, sqlserver, or linux)", s.Name, g.Base)
	}
	if g.CanaryRatePerSec < 0 || g.CanaryTimeoutMS < 0 || g.FingerprintThreshold < 0 {
		add("%q has negative fingerprinting parameters", s.Name)
	}
	if g.C2Server != "" {
		if _, err := netsim.ParseAddr(g.C2Server); err != nil {
			add("%q has unparseable c2_server: %v", s.Name, err)
		}
	} else if g.C2Port != 0 || g.BeaconPeriodMS != 0 {
		add("%q configures C2 beaconing without a c2_server", s.Name)
	}
	if g.BeaconPeriodMS < 0 {
		add("%q has negative beacon period", s.Name)
	}
	if g.P2PPeers < 0 || g.P2PPeers > 64 {
		add("%q has p2p_peers %d (want 0..64)", s.Name, g.P2PPeers)
	}
	if s.SettleMS < 0 {
		add("%q has negative settle_ms", s.Name)
	}
	return errors.Join(errs...)
}

// Hash is a stable identity of the scenario's full content (FNV-1a
// over its canonical JSON). Cluster handshakes fold it into the config
// tag so a coordinator and worker loaded from divergent scenario files
// are rejected instead of silently diverging; the compiler folds it
// into the RNG seed so different campaigns draw different streams.
func (s *Scenario) Hash() uint64 {
	b, err := json.Marshal(s)
	if err != nil {
		// A Scenario is plain data; Marshal cannot fail on one.
		panic(fmt.Sprintf("scenario: hashing %q: %v", s.Name, err))
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// Load parses and validates a scenario from JSON. Unknown fields are
// rejected so typos fail loudly instead of silently meaning defaults.
func Load(r io.Reader) (*Scenario, error) {
	var s Scenario
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parsing: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadFile loads a scenario from a JSON file.
func LoadFile(path string) (*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Lookup resolves arg as a builtin family name first, then as a file
// path — so `-scenario multistage` and `-scenario ./my.json` both work.
func Lookup(arg string) (*Scenario, error) {
	if s := Builtin(arg); s != nil {
		return s, nil
	}
	if _, err := os.Stat(arg); err != nil {
		return nil, fmt.Errorf("scenario: %q is neither a builtin (%v) nor a readable file", arg, Names())
	}
	return LoadFile(arg)
}

// Names lists the builtin scenario families, sorted.
func Names() []string {
	names := make([]string, 0, len(builtins))
	for n := range builtins {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Builtin returns a fresh copy of a builtin scenario, nil if unknown.
func Builtin(name string) *Scenario {
	f, ok := builtins[name]
	if !ok {
		return nil
	}
	s := f()
	return &s
}

// baseProfile returns the stock guest personality a spec builds on.
func baseProfile(base string) *guest.Profile {
	switch base {
	case "sqlserver":
		return guest.SQLServer()
	case "linux":
		return guest.LinuxServer()
	default:
		return guest.WindowsXP()
	}
}

// Profile derives the guest personality the scenario runs: the base
// profile with the spec's behavioral overrides applied and validated.
func (s *Scenario) Profile() (*guest.Profile, error) {
	g := s.Guest
	p := baseProfile(g.Base)
	p.Name = p.Name + "+" + s.Name
	switch {
	case g.ScanRatePerSec > 0:
		p.ScanRatePerSec = g.ScanRatePerSec
	case g.ScanRatePerSec < 0:
		p.ScanRatePerSec = 0
	}
	p.CanaryRatePerSec = g.CanaryRatePerSec
	p.CanaryPort = g.CanaryPort
	p.CanaryTimeoutMS = g.CanaryTimeoutMS
	p.FingerprintThreshold = g.FingerprintThreshold
	if g.C2Server != "" {
		c2, err := netsim.ParseAddr(g.C2Server)
		if err != nil {
			return nil, fmt.Errorf("scenario: %q: %w", s.Name, err)
		}
		p.C2Server = c2
		p.C2Port = g.C2Port
		p.BeaconPeriodMS = g.BeaconPeriodMS
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: %q derives an invalid guest: %w", s.Name, err)
	}
	return p, nil
}
