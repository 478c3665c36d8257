package scenario

import (
	"fmt"
	"sort"
	"time"

	"potemkin/internal/guest"
	"potemkin/internal/netsim"
	"potemkin/internal/pace"
	"potemkin/internal/score"
	"potemkin/internal/sim"
	"potemkin/internal/telescope"
)

// attackerBase is where campaign sources live: 198.18.0.0/16 (the
// RFC 2544 benchmarking block — guaranteed disjoint from anything the
// farm would monitor in practice, and checked against the space).
const attackerBase = netsim.Addr(0xC6120000)

// attackerPool is how many addresses attackerBase's /16 holds: a stage
// draws its distinct sources from them, so it can ask for no more.
const attackerPool = 1 << 16

// seedSalt separates the scenario compiler's stream from every other
// consumer of the run seed ("scen" in ASCII).
const seedSalt = 0x7363656e

// Plan is a compiled campaign: every externally-driven packet with its
// arrival time, plus the guest personality and lateral-movement
// topology the stages trigger. A Plan is pure data derived from
// (scenario, seed, space) — replaying it through any engine, in any
// execution mode, produces the same simulation.
type Plan struct {
	Scenario *Scenario
	Profile  *guest.Profile
	Space    netsim.Prefix
	Seed     uint64
	// Records is the attacker's packet schedule, time-sorted. Exploit
	// records carry the actual payload bytes (trace format v2), so the
	// plan round-trips through trace files and the cluster codec.
	Records []telescope.Record
	// Settle is how long the simulation keeps running after the last
	// record.
	Settle time.Duration
}

// Compile turns a scenario into a packet plan. All randomness comes
// from one RNG seeded by (seed, scenario content), drawn in a fixed
// order — the compiler is the single source of nondeterminism for a
// campaign, and it has none.
func Compile(s *Scenario, seed uint64, space netsim.Prefix) (*Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	profile, err := s.Profile()
	if err != nil {
		return nil, err
	}
	if space.Contains(attackerBase) {
		return nil, fmt.Errorf("scenario: monitored space %s contains the attacker source block %s/16", space, attackerBase)
	}
	if profile.C2Server != 0 && space.Contains(profile.C2Server) {
		return nil, fmt.Errorf("scenario: %q places its C2 server %s inside the monitored space %s", s.Name, profile.C2Server, space)
	}

	var vuln *guest.ServiceSpec
	for i := range profile.Services {
		if profile.Services[i].Vulnerable {
			vuln = &profile.Services[i]
		}
	}

	rng := sim.NewRNG(seed ^ seedSalt ^ s.Hash())
	p := &Plan{
		Scenario: s,
		Profile:  profile,
		Space:    space,
		Seed:     seed,
		Settle:   time.Duration(s.SettleMS) * time.Millisecond,
	}
	if s.SettleMS == 0 {
		p.Settle = 20 * time.Second
	}

	for i, st := range s.Stages {
		srcs := attackerSources(rng, max(st.Sources, 1))
		// Constant-rate spacing over the spread window, via the same
		// schedule arithmetic the wall-clock pacing governor uses.
		rate := 0.0
		if st.SpreadMS > 0 {
			rate = float64(st.Count) / (float64(st.SpreadMS) / 1000)
		}
		start := time.Duration(st.AtMS) * time.Millisecond
		for n := 0; n < st.Count; n++ {
			rec := telescope.Record{
				At:      sim.Time(start + pace.Schedule(uint64(n), rate)),
				Src:     srcs[n%len(srcs)],
				Dst:     space.Nth(rng.Uint64n(space.Size())),
				SrcPort: uint16(32768 + rng.Uint64n(28232)),
			}
			switch st.Kind {
			case "recon":
				rec.Proto = netsim.ProtoTCP
				rec.Flags = netsim.FlagSYN
				rec.DstPort = st.Port
				if rec.DstPort == 0 {
					if vuln != nil {
						rec.DstPort = vuln.Port
					} else {
						rec.DstPort = 445
					}
				}
			case "exploit":
				if vuln == nil {
					return nil, fmt.Errorf("scenario: %q stage %d exploits, but guest %q has no vulnerability", s.Name, i, profile.Name)
				}
				payload := profile.ExploitPayload(0)
				rec.Proto = vuln.Proto
				rec.DstPort = vuln.Port
				rec.Payload = payload
				rec.PayLen = uint16(len(payload))
				if vuln.Proto == netsim.ProtoTCP {
					rec.Flags = netsim.FlagSYN | netsim.FlagPSH
				}
			}
			p.Records = append(p.Records, rec)
		}
	}
	sort.SliceStable(p.Records, func(i, j int) bool { return p.Records[i].At < p.Records[j].At })
	return p, nil
}

// attackerSources draws n distinct campaign source addresses.
func attackerSources(rng *sim.RNG, n int) []netsim.Addr {
	srcs := make([]netsim.Addr, 0, n)
	seen := make(map[netsim.Addr]bool, n)
	for len(srcs) < n {
		a := attackerBase + netsim.Addr(rng.Uint64n(attackerPool))
		if seen[a] {
			continue
		}
		seen[a] = true
		srcs = append(srcs, a)
	}
	return srcs
}

// Facts describes the compiled run for the scorecard. policy is the
// containment mode the run executes under — an option, not part of the
// scenario — and nothing here depends on execution mode, so cards from
// sequential, parallel, and cluster runs carry identical Facts.
func (p *Plan) Facts(policy string) score.Facts {
	horizon := p.Settle.Milliseconds()
	if n := len(p.Records); n > 0 {
		horizon += time.Duration(p.Records[n-1].At).Milliseconds()
	}
	return score.Facts{
		Scenario:  p.Scenario.Name,
		Version:   p.Scenario.Version,
		Seed:      p.Seed,
		Space:     p.Space.String(),
		Policy:    policy,
		Guest:     p.Profile.Name,
		Steps:     len(p.Records),
		HorizonMS: horizon,
	}
}

// PickTargetFor returns the per-guest lateral-movement picker for
// scenarios with a P2P overlay, nil otherwise (keeping the engine's
// default uniform pick). Each guest's peer table is its Chord-style
// finger set — the addresses at power-of-two distances around the
// monitored space — so propagation follows overlay structure instead
// of uniform scanning, and every table is a pure function of the
// guest's own address.
func (p *Plan) PickTargetFor() func(self netsim.Addr) guest.TargetPicker {
	n := p.Scenario.Guest.P2PPeers
	if n <= 0 {
		return nil
	}
	space := p.Space
	return func(self netsim.Addr) guest.TargetPicker {
		size := space.Size()
		base := space.Index(self)
		fingers := make([]netsim.Addr, 0, n)
		for k := 0; k < n; k++ {
			idx := (base + 1<<(uint(k)%63)) % size
			if idx == base {
				idx = (base + 1) % size
			}
			fingers = append(fingers, space.Nth(idx))
		}
		return func(r *sim.RNG) netsim.Addr {
			return fingers[r.Uint64n(uint64(len(fingers)))]
		}
	}
}
