package gateway

import (
	"slices"

	"potemkin/internal/netsim"
	"potemkin/internal/sim"
)

// Egress is the surface VM-originated traffic enters the gateway layer
// through: the farm sends every packet a guest emits to one, so a test
// or benchmark can put a decorator between the farm and its Gateway.
type Egress interface {
	HandleOutbound(now sim.Time, pkt *netsim.Packet) Disposition
}

// Disposition is what the containment engine decided for an outbound
// packet.
type Disposition int

// Outbound dispositions.
const (
	DispDropped Disposition = iota
	DispAllowedOpen
	DispToSource
	DispDNSProxied
	DispInternal  // destination already inside the honeyfarm
	DispReflected // rewritten to a honeyfarm address
)

// String names the disposition.
func (d Disposition) String() string {
	switch d {
	case DispDropped:
		return "dropped"
	case DispAllowedOpen:
		return "allowed-open"
	case DispToSource:
		return "to-source"
	case DispDNSProxied:
		return "dns-proxied"
	case DispInternal:
		return "internal"
	case DispReflected:
		return "reflected"
	default:
		return "unknown"
	}
}

// HandleOutbound applies containment to a packet originated by the VM
// bound to pkt.Src and returns the disposition. Every honeyfarm-egress
// packet — honeypot replies and worm scans alike — passes through here;
// nothing leaves except via Cfg.ExternalOut.
func (g *Gateway) HandleOutbound(now sim.Time, pkt *netsim.Packet) Disposition {
	b := g.bindings[pkt.Src]
	if b != nil {
		b.LastActive = now
		g.detect(now, b, pkt.Dst)
	}

	// Traffic between honeyfarm addresses stays inside: deliver as
	// inbound. This is what makes reflected VMs reachable and lets
	// worms spread (observably, containedly) within the farm. Under
	// sharding, the owning instance does the delivering.
	if g.Cfg.Space.Contains(pkt.Dst) {
		g.stats.OutInternal++
		if g.reinject != nil && g.owns != nil && !g.owns(pkt.Dst) {
			if pkt.Ephemeral {
				// It rides the shard router past this dispatch. A clone, not
				// a held packet: the barrier hands it to the owning domain's
				// goroutine, which cannot return it to this gateway's list.
				pkt = pkt.Clone()
			}
			g.reinject(now, pkt)
		} else {
			g.HandleInbound(now, pkt)
		}
		return DispInternal
	}

	// From here down the packet aims outside the farm: that is one
	// egress attempt, and whichever arm emits to the real world below
	// counts it permitted. The attempted/permitted pair is the
	// containment leak-rate numerator and denominator.
	g.stats.EgressAttempted++

	switch g.Cfg.Policy {
	case PolicyOpen:
		g.stats.OutAllowedOpen++
		g.stats.EgressPermitted++
		g.emit(now, pkt)
		return DispAllowedOpen
	case PolicyDropAll:
		// Even drop-all lets DNS through, to the resolver.
		if d, ok := g.tryDNS(now, pkt); ok {
			return d
		}
		g.stats.OutDropped++
		return DispDropped
	case PolicyReflectSource, PolicyInternalReflect:
		if b != nil && b.isPeer(pkt.Dst) {
			g.stats.OutToSource++
			g.stats.EgressPermitted++
			g.emit(now, pkt)
			return DispToSource
		}
		if d, ok := g.tryDNS(now, pkt); ok {
			return d
		}
		if g.Cfg.Policy == PolicyInternalReflect {
			return g.reflect(now, pkt)
		}
		g.stats.OutDropped++
		return DispDropped
	default:
		g.stats.OutDropped++
		return DispDropped
	}
}

// tryDNS proxies UDP/53 to the configured resolver.
func (g *Gateway) tryDNS(now sim.Time, pkt *netsim.Packet) (Disposition, bool) {
	if pkt.Proto != netsim.ProtoUDP || pkt.DstPort != 53 {
		return DispDropped, false
	}
	q := g.hold(pkt)
	q.Dst = g.Cfg.Resolver
	g.stats.OutDNSProxied++
	g.logEvent(now, EvDNSProxied, pkt.Src, pkt.Dst, "")
	g.emit(now, q)
	g.drop(q)
	return DispDNSProxied, true
}

// reflect redirects an outbound connection to a honeyfarm address,
// creating the binding (and hence a VM impersonating the remote
// endpoint) on delivery. The external destination maps stably to one
// internal address so a whole TCP conversation lands on one VM.
func (g *Gateway) reflect(now sim.Time, pkt *netsim.Packet) Disposition {
	internal, ok := g.reflections[pkt.Dst]
	if !ok {
		if len(g.reflections) >= g.Cfg.ReflectionLimit {
			g.stats.OutReflectDenied++
			g.stats.OutDropped++
			return DispDropped
		}
		internal = g.pickReflectionAddr()
		if internal == 0 {
			g.stats.OutReflectDenied++
			g.stats.OutDropped++
			return DispDropped
		}
		g.reflections[pkt.Dst] = internal
	}
	g.stats.OutReflected++
	if g.logging() {
		g.logEvent(now, EvReflected, pkt.Src, pkt.Dst, "to "+internal.String())
	}
	// Mark the new binding as reflected so stats and recycling know.
	if _, exists := g.bindings[internal]; !exists {
		if b := g.bind(now, internal, SpawnHint{Reflected: true, Source: pkt.Src}); b == nil {
			return DispDropped
		}
	}
	r := g.hold(pkt)
	r.Dst = internal
	g.HandleInbound(now, r)
	g.drop(r)
	return DispReflected
}

// pickReflectionAddr finds an unbound address in the monitored space
// (restricted to this instance's shard when sharded, so the reflected
// binding lives where its traffic will be routed).
func (g *Gateway) pickReflectionAddr() netsim.Addr {
	size := g.Cfg.Space.Size()
	for try := 0; try < 64; try++ {
		a := g.Cfg.Space.Nth(g.rng.Uint64n(size))
		if g.owns != nil && !g.owns(a) {
			continue
		}
		if _, bound := g.bindings[a]; !bound {
			return a
		}
	}
	return 0
}

// detect feeds the scan detector with an outbound target attempt.
// Replies to known peers are honeypot fidelity, not scanning, and do
// not count.
func (g *Gateway) detect(now sim.Time, b *Binding, dst netsim.Addr) {
	if g.Cfg.DetectThreshold <= 0 || b.detected || b.isPeer(dst) || slices.Contains(b.outTargets, dst) {
		return
	}
	b.outTargets = append(b.outTargets, dst)
	if len(b.outTargets) >= g.Cfg.DetectThreshold {
		b.detected = true
		g.stats.DetectedInfected++
		g.detectTime.Observe(float64(now) / 1e6)
		g.logEvent(now, EvDetected, b.Addr, dst, "")
		if g.Cfg.OnDetected != nil {
			g.Cfg.OnDetected(now, b.Addr, len(b.outTargets))
		}
	}
}

// emit sends a packet to the real network (or counts it when no
// external sink is wired).
func (g *Gateway) emit(now sim.Time, pkt *netsim.Packet) {
	g.capture(now, CapEgress, pkt)
	if g.Cfg.ExternalOut != nil {
		g.Cfg.ExternalOut(now, pkt)
	}
}
