package gateway

import (
	"bytes"
	"testing"

	"potemkin/internal/netsim"
	"potemkin/internal/sim"
)

var (
	proxyHost = netsim.MustParseAddr("172.16.9.9")
	proxyNAT  = netsim.MustParseAddr("192.0.2.1")
)

func proxyGateway(t *testing.T) (*Gateway, *fakeBackend, *sim.Kernel, *[]*netsim.Packet) {
	t.Helper()
	var out []*netsim.Packet
	g, fb, k := newTestGateway(t, func(c *Config) {
		c.Policy = PolicyReflectSource
		c.ProxyAddr = proxyNAT
		c.ProxyRules = map[uint16]ProxyRule{25: {Host: proxyHost}}
		c.ExternalOut = func(_ sim.Time, p *netsim.Packet) { out = append(out, p.Clone()) }
	})
	return g, fb, k, &out
}

func TestProxyForwardsToSacrificialHost(t *testing.T) {
	g, _, k, out := proxyGateway(t)
	outboundFrom(t, g, k, mon(0))
	// The VM opens an SMTP connection to a third party: proxied, not
	// dropped or reflected.
	pkt := netsim.TCPSyn(mon(0), netsim.MustParseAddr("99.9.9.9"), 5555, 25, 77)
	if d := g.HandleOutbound(k.Now(), pkt); d != DispProxied {
		t.Fatalf("disposition = %v", d)
	}
	if len(*out) != 1 {
		t.Fatalf("externalized = %d", len(*out))
	}
	fwd := (*out)[0]
	if fwd.Dst != proxyHost || fwd.Src != proxyNAT {
		t.Errorf("forwarded = %s", fwd)
	}
	if fwd.DstPort != 25 || fwd.SrcPort < natBase {
		t.Errorf("ports = %d -> %d", fwd.SrcPort, fwd.DstPort)
	}
	if g.Stats().OutProxied != 1 {
		t.Errorf("OutProxied = %d", g.Stats().OutProxied)
	}
	// Original packet untouched.
	if pkt.Dst != netsim.MustParseAddr("99.9.9.9") {
		t.Error("original packet mutated")
	}
}

func TestProxyReturnPathImpersonatesOriginalDst(t *testing.T) {
	g, fb, k, out := proxyGateway(t)
	outboundFrom(t, g, k, mon(0))
	orig := netsim.MustParseAddr("99.9.9.9")
	g.HandleOutbound(k.Now(), netsim.TCPSyn(mon(0), orig, 5555, 25, 77))
	fwd := (*out)[0]

	// The sacrificial host replies to the NAT address.
	reply := &netsim.Packet{
		Src: proxyHost, Dst: proxyNAT, Proto: netsim.ProtoTCP, TTL: 60,
		SrcPort: 25, DstPort: fwd.SrcPort,
		Seq: 1, Ack: 78, Flags: netsim.FlagSYN | netsim.FlagACK,
		Payload: []byte("220 mail ready"),
	}
	g.HandleInbound(k.Now(), reply)

	vm := fb.spawned[0]
	got := vm.delivered[len(vm.delivered)-1]
	if got.Src != orig || got.SrcPort != 25 {
		t.Errorf("return source = %s:%d, want impersonated %s:25", got.Src, got.SrcPort, orig)
	}
	if got.Dst != mon(0) || got.DstPort != 5555 {
		t.Errorf("return dest = %s:%d", got.Dst, got.DstPort)
	}
	if !bytes.Equal(got.Payload, []byte("220 mail ready")) {
		t.Error("payload lost in NAT")
	}
	if g.Stats().ProxyReturns != 1 {
		t.Errorf("ProxyReturns = %d", g.Stats().ProxyReturns)
	}
}

func TestProxyFlowsAreStable(t *testing.T) {
	g, _, k, out := proxyGateway(t)
	outboundFrom(t, g, k, mon(0))
	for i := 0; i < 3; i++ {
		g.HandleOutbound(k.Now(), netsim.TCPSyn(mon(0), netsim.MustParseAddr("99.9.9.9"), 5555, 25, uint32(i)))
	}
	if (*out)[0].SrcPort != (*out)[2].SrcPort {
		t.Error("same flow mapped to different NAT ports")
	}
	// Different VM source port = different flow = different NAT port.
	g.HandleOutbound(k.Now(), netsim.TCPSyn(mon(0), netsim.MustParseAddr("99.9.9.9"), 6666, 25, 9))
	if (*out)[3].SrcPort == (*out)[0].SrcPort {
		t.Error("distinct flows share a NAT port")
	}
}

func TestProxyOnlyConfiguredPorts(t *testing.T) {
	g, _, k, out := proxyGateway(t)
	outboundFrom(t, g, k, mon(0))
	// Port 80 has no rule: normal containment applies (drop under
	// reflect-source).
	if d := g.HandleOutbound(k.Now(), netsim.TCPSyn(mon(0), netsim.MustParseAddr("99.9.9.9"), 5555, 80, 1)); d != DispDropped {
		t.Errorf("disposition = %v", d)
	}
	if len(*out) != 0 {
		t.Errorf("externalized = %d", len(*out))
	}
}

func TestProxyUnknownReturnSwallowed(t *testing.T) {
	g, fb, k, _ := proxyGateway(t)
	outboundFrom(t, g, k, mon(0))
	delivered := len(fb.spawned[0].delivered)
	// Unsolicited packet to the NAT address: swallowed, never reaches a VM.
	g.HandleInbound(k.Now(), netsim.TCPSyn(proxyHost, proxyNAT, 25, 31337, 1))
	if len(fb.spawned[0].delivered) != delivered {
		t.Error("unsolicited proxy return delivered")
	}
}
