package gateway

import (
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
)

// Protocol proxying is the paper's containment option for traffic that
// neither reflection nor a resolver can fake well enough: forward it to
// a sacrificial, heavily-instrumented real host instead. The gateway
// NATs the VM's connection to the proxy host and rewrites the return
// path so the malware believes it reached its intended destination.
//
// Rules are per destination port. The NAT table maps an allocated
// gateway port to the original (VM, destination) pair; returns arrive
// addressed to ProxyAddr and are rewritten back.

// ProxyRule names a sacrificial host for one destination port.
type ProxyRule struct {
	// Host receives the proxied traffic.
	Host netsim.Addr
}

// natEntry records one proxied flow.
type natEntry struct {
	vmAddr  netsim.Addr
	vmPort  uint16
	origDst netsim.Addr
	dstPort uint16
}

// natBase is the first gateway port used for proxy NAT.
const natBase = 20000

// maxNATEntries bounds the table; beyond it, proxying degrades to the
// policy's default disposition.
const maxNATEntries = 8192

// tryProxy forwards a VM-originated packet to its port's sacrificial
// host, if a rule exists. Reports whether it consumed the packet.
func (g *Gateway) tryProxy(now sim.Time, pkt *netsim.Packet) (Disposition, bool) {
	if len(g.Cfg.ProxyRules) == 0 || g.Cfg.ProxyAddr == 0 || pkt.Proto != netsim.ProtoTCP && pkt.Proto != netsim.ProtoUDP {
		return DispDropped, false
	}
	rule, ok := g.Cfg.ProxyRules[pkt.DstPort]
	if !ok {
		return DispDropped, false
	}
	key := natEntry{vmAddr: pkt.Src, vmPort: pkt.SrcPort, origDst: pkt.Dst, dstPort: pkt.DstPort}
	gwPort, ok := g.natPorts[key]
	if !ok {
		if len(g.natPorts) >= maxNATEntries {
			g.stats.OutDropped++
			return DispDropped, true
		}
		gwPort = natBase + uint16(len(g.natPorts))
		g.natPorts[key] = gwPort
		g.nat[gwPort] = key
	}
	fwd := g.hold(pkt)
	fwd.Src = g.Cfg.ProxyAddr
	fwd.SrcPort = gwPort
	fwd.Dst = rule.Host
	g.stats.OutProxied++
	g.stats.EgressPermitted++
	g.emit(now, fwd)
	g.drop(fwd)
	return DispProxied, true
}

// handleProxyReturn rewrites a sacrificial host's reply back to the VM,
// impersonating the malware's original destination. Reports whether the
// packet was a proxy return.
func (g *Gateway) handleProxyReturn(now sim.Time, pkt *netsim.Packet) bool {
	if g.Cfg.ProxyAddr == 0 || pkt.Dst != g.Cfg.ProxyAddr {
		return false
	}
	entry, ok := g.nat[pkt.DstPort]
	if !ok {
		g.stats.InboundOutside++
		return true // addressed to us but unknown flow: swallow
	}
	g.stats.ProxyReturns++
	// Deliver directly to the bound VM; a recycled binding drops it.
	if b, ok := g.bindings[entry.vmAddr]; ok && b.State == BindingActive {
		back := g.hold(pkt)
		back.Src = entry.origDst // the address the malware thinks it reached
		back.SrcPort = entry.dstPort
		back.Dst = entry.vmAddr
		back.DstPort = entry.vmPort
		b.LastActive = now
		g.stats.DeliveredToVM++
		g.capture(now, CapToVM, back)
		b.VM.Deliver(now, back)
		g.drop(back)
	}
	return true
}
