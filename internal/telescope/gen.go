package telescope

import (
	"fmt"
	"sort"
	"time"

	"potemkin/internal/netsim"
	"potemkin/internal/sim"
)

// GenConfig parameterizes the background-radiation synthesizer.
//
// The generator mixes three components observed on real telescopes:
//
//   - Poisson background: independent probes to Zipf-popular addresses
//     (misconfiguration, stale scans, backscatter).
//   - Sweep sessions: a scanner walks a contiguous range of the
//     monitored space at a fixed rate (horizontal worm scans). Sweeps
//     give the trace the temporal locality that makes aggressive VM
//     recycling effective.
//   - Vertical scans: one source probes many ports on one address.
//
// The multiplexing experiments (E3/E7) depend on the *shape* of this mix
// — a heavy-tailed address popularity and bursty sweeps — not on exact
// telescope numbers.
type GenConfig struct {
	Space    netsim.Prefix // monitored address space
	Duration time.Duration // trace length
	Rate     float64       // aggregate packets/second

	// Mix fractions (must sum to <= 1; remainder is background).
	SweepFrac    float64 // fraction of packets in sweep sessions
	VerticalFrac float64 // fraction of packets in vertical scans

	// SweepWidth is how many consecutive addresses a sweep touches.
	SweepWidth int
	// SweepRate is per-sweep probe rate (packets/second).
	SweepRate float64

	// ZipfSkew shapes per-address background popularity (s parameter).
	ZipfSkew float64
	// HotAddresses is the size of the popular set background probes are
	// drawn from (the rest of the space receives sweeps only).
	HotAddresses int

	Seed uint64
}

// DefaultGenConfig returns the standard /16, 10-minute, 200 pps feed
// used by E3/E7.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		Space:        netsim.MustParsePrefix("10.5.0.0/16"),
		Duration:     10 * time.Minute,
		Rate:         200,
		SweepFrac:    0.35,
		VerticalFrac: 0.05,
		SweepWidth:   1024,
		SweepRate:    50,
		ZipfSkew:     1.05,
		HotAddresses: 8192,
		Seed:         1,
	}
}

// portMix is the destination-port distribution of background probes,
// roughly the 2004-2005 telescope mix (SMB/RPC worms, Slammer residue,
// HTTP scans).
var portMix = []struct {
	port   uint16
	proto  netsim.Proto
	weight int
}{
	{445, netsim.ProtoTCP, 30},
	{135, netsim.ProtoTCP, 22},
	{139, netsim.ProtoTCP, 10},
	{1434, netsim.ProtoUDP, 12},
	{80, netsim.ProtoTCP, 8},
	{1023, netsim.ProtoTCP, 5},
	{3389, netsim.ProtoTCP, 4},
	{22, netsim.ProtoTCP, 3},
	{25, netsim.ProtoTCP, 3},
	{0, netsim.ProtoICMP, 3},
}

var portMixTotal = func() int {
	t := 0
	for _, pm := range portMix {
		t += pm.weight
	}
	return t
}()

func drawPort(r *sim.RNG) (uint16, netsim.Proto) {
	n := r.Intn(portMixTotal)
	for _, pm := range portMix {
		if n < pm.weight {
			return pm.port, pm.proto
		}
		n -= pm.weight
	}
	return 445, netsim.ProtoTCP
}

// randomExternal draws a source address outside the monitored space.
func randomExternal(r *sim.RNG, space netsim.Prefix) netsim.Addr {
	for {
		a := netsim.Addr(r.Uint64n(1 << 32))
		if !space.Contains(a) && a != 0 {
			return a
		}
	}
}

// Generate synthesizes a complete trace, sorted by time.
func Generate(cfg GenConfig) ([]Record, error) {
	if cfg.Rate <= 0 || cfg.Duration <= 0 {
		return nil, fmt.Errorf("telescope: non-positive rate or duration")
	}
	if cfg.SweepFrac+cfg.VerticalFrac > 1 {
		return nil, fmt.Errorf("telescope: mix fractions exceed 1")
	}
	r := sim.NewRNG(cfg.Seed)
	total := int(cfg.Rate * cfg.Duration.Seconds())
	out := make([]Record, 0, total)

	// Background: Poisson arrivals to Zipf-popular addresses.
	hot := cfg.HotAddresses
	if hot <= 0 || uint64(hot) > cfg.Space.Size() {
		hot = int(cfg.Space.Size())
	}
	// Hot set: a deterministic pseudo-random subset of the space, so
	// popular addresses are scattered, not clustered.
	zipf := sim.NewZipf(r.Fork("zipf"), hot, cfg.ZipfSkew)
	hotPick := r.Fork("hotset")
	hotSet := make([]uint64, hot)
	seen := make(map[uint64]bool, hot)
	for i := range hotSet {
		for {
			v := hotPick.Uint64n(cfg.Space.Size())
			if !seen[v] {
				seen[v] = true
				hotSet[i] = v
				break
			}
		}
	}

	bgCount := int(float64(total) * (1 - cfg.SweepFrac - cfg.VerticalFrac))
	bgRate := float64(bgCount) / cfg.Duration.Seconds()
	bg := r.Fork("background")
	t := 0.0
	for i := 0; i < bgCount; i++ {
		t += bg.Exp(1 / bgRate)
		if t > cfg.Duration.Seconds() {
			break
		}
		port, proto := drawPort(bg)
		rec := Record{
			At:      sim.Start.Add(time.Duration(t * float64(time.Second))),
			Src:     randomExternal(bg, cfg.Space),
			Dst:     cfg.Space.Nth(hotSet[zipf.Draw()]),
			Proto:   proto,
			SrcPort: uint16(1024 + bg.Intn(60000)),
			DstPort: port,
		}
		if proto == netsim.ProtoTCP {
			rec.Flags = netsim.FlagSYN
		}
		if proto == netsim.ProtoUDP {
			rec.PayLen = uint16(64 + bg.Intn(320))
		}
		if proto == netsim.ProtoICMP {
			rec.SrcPort = 0 // no ports on the wire; keep records wire-representable
		}
		out = append(out, rec)
	}

	// Sweep sessions.
	if cfg.SweepFrac > 0 && cfg.SweepWidth > 0 && cfg.SweepRate > 0 {
		sweepPkts := int(float64(total) * cfg.SweepFrac)
		sw := r.Fork("sweeps")
		for emitted := 0; emitted < sweepPkts; {
			width := cfg.SweepWidth
			if rem := sweepPkts - emitted; width > rem {
				width = rem
			}
			start := sw.Float64() * (cfg.Duration.Seconds() - float64(width)/cfg.SweepRate)
			if start < 0 {
				start = 0
			}
			src := randomExternal(sw, cfg.Space)
			base := sw.Uint64n(cfg.Space.Size())
			port, proto := drawPort(sw)
			for i := 0; i < width; i++ {
				at := start + float64(i)/cfg.SweepRate
				if at > cfg.Duration.Seconds() {
					break
				}
				rec := Record{
					At:      sim.Start.Add(time.Duration(at * float64(time.Second))),
					Src:     src,
					Dst:     cfg.Space.Nth((base + uint64(i)) % cfg.Space.Size()),
					Proto:   proto,
					SrcPort: uint16(1024 + sw.Intn(60000)),
					DstPort: port,
				}
				if proto == netsim.ProtoTCP {
					rec.Flags = netsim.FlagSYN
				}
				if proto == netsim.ProtoICMP {
					rec.SrcPort = 0
				}
				out = append(out, rec)
				emitted++
			}
		}
	}

	// Vertical scans: one destination, many ports.
	if cfg.VerticalFrac > 0 {
		vertPkts := int(float64(total) * cfg.VerticalFrac)
		vt := r.Fork("vertical")
		const portsPerScan = 64
		for emitted := 0; emitted < vertPkts; {
			src := randomExternal(vt, cfg.Space)
			dst := cfg.Space.Nth(vt.Uint64n(cfg.Space.Size()))
			start := float64(vt.Float64() * cfg.Duration.Seconds()) // float64 rounds the product: no fused multiply-add (make vet)
			for i := 0; i < portsPerScan && emitted < vertPkts; i++ {
				at := start + float64(float64(i)*0.02) // float64 rounds the product: no fused multiply-add (make vet)
				if at > cfg.Duration.Seconds() {
					break
				}
				out = append(out, Record{
					At:      sim.Start.Add(time.Duration(at * float64(time.Second))),
					Src:     src,
					Dst:     dst,
					Proto:   netsim.ProtoTCP,
					SrcPort: uint16(1024 + vt.Intn(60000)),
					DstPort: uint16(1 + vt.Intn(10000)),
					Flags:   netsim.FlagSYN,
				})
				emitted++
			}
		}
	}

	sort.Slice(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out, nil
}

// Stats summarizes a trace for reports and sanity tests.
type Stats struct {
	Packets       int
	UniqueSources int
	UniqueDests   int
	Duration      time.Duration
	RatePPS       float64
}

// Summarize computes trace statistics.
func Summarize(recs []Record) Stats {
	srcs := make(map[netsim.Addr]bool)
	dsts := make(map[netsim.Addr]bool)
	var last sim.Time
	for i := range recs {
		srcs[recs[i].Src] = true
		dsts[recs[i].Dst] = true
		if recs[i].At > last {
			last = recs[i].At
		}
	}
	st := Stats{
		Packets:       len(recs),
		UniqueSources: len(srcs),
		UniqueDests:   len(dsts),
		Duration:      time.Duration(last),
	}
	if last > 0 {
		st.RatePPS = float64(len(recs)) / st.Duration.Seconds()
	}
	return st
}
