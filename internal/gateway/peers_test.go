package gateway

import (
	"fmt"
	"slices"
	"testing"

	"potemkin/internal/netsim"
	"potemkin/internal/sim"
)

// refPeers is a binding's peer table as it was before the ring: a Go map
// plus an arrival-order slice, oldest evicted first.
type refPeers struct {
	peers map[netsim.Addr]struct{}
	order []netsim.Addr
}

func (r *refPeers) note(addr netsim.Addr, limit int) {
	if _, ok := r.peers[addr]; ok {
		return
	}
	for len(r.peers) >= limit && len(r.order) > 0 {
		delete(r.peers, r.order[0])
		r.order = r.order[1:]
	}
	r.peers[addr] = struct{}{}
	r.order = append(r.order, addr)
}

// arrivals lists a peer set oldest first.
func (s *peerSet) arrivals() []netsim.Addr {
	var out []netsim.Addr
	for i := 0; i < s.len(); i++ {
		out = append(out, s.ring[(s.head+i)%len(s.ring)])
	}
	return out
}

// poolAddr is the pth address of TestPeerSetMatchesMapModel's arrival
// pool: 0.0.0.0 first, which a peer set cannot index as itself.
func poolAddr(p int) netsim.Addr {
	if p == 0 {
		return 0
	}
	return ext(p)
}

// TestPeerSetMatchesMapModel feeds one binding's peer set and the map
// model the same arrivals, through HandleInbound, and requires the same
// members and the same arrival order after every packet: so the same
// peers are evicted, in the same order. The pool of sources includes
// 0.0.0.0. Three tenants in turn use the same recycled binding. The
// subtest is named for the limit, maxPeers.
func TestPeerSetMatchesMapModel(t *testing.T) {
	t.Run(fmt.Sprint(maxPeers), func(t *testing.T) {
		g, _, k := newTestGateway(t, nil)
		rng := sim.NewRNG(maxPeers)
		const pool = 2*maxPeers + 3
		var first *Binding
		for tenant := 0; tenant < 3; tenant++ {
			ref := refPeers{peers: map[netsim.Addr]struct{}{}}
			for i := 0; i < 4*maxPeers+20; i++ {
				src := poolAddr(int(rng.Uint64n(pool)))
				g.HandleInbound(k.Now(), syn(src, mon(tenant)))
				ref.note(src, maxPeers)
				b := g.Binding(mon(tenant))
				if got := b.peers.arrivals(); !slices.Equal(got, ref.order) {
					t.Fatalf("tenant %d, packet %d: peers %v, model %v", tenant, i, got, ref.order)
				}
				if b.Peers() != len(ref.peers) {
					t.Fatalf("tenant %d: Peers = %d, model %d", tenant, b.Peers(), len(ref.peers))
				}
				for p := 0; p < pool && i%8 == 0; p++ { // the index, against the whole pool
					_, want := ref.peers[poolAddr(p)]
					if b.isPeer(poolAddr(p)) != want {
						t.Fatalf("tenant %d, packet %d: isPeer(%v) = %v", tenant, i, poolAddr(p), !want)
					}
				}
			}
			k.Run()
			b := g.Binding(mon(tenant))
			if first == nil {
				first = b
			} else if b != first {
				t.Fatalf("tenant %d is not on the recycled binding", tenant)
			}
			g.RecycleAll(k.Now())
		}
	})
}

// TestReflectSourceRepliesToZeroAddress: under reflect-source a guest may
// answer 0.0.0.0 once that address has contacted it, and not after it
// has been evicted from the binding's peers.
func TestReflectSourceRepliesToZeroAddress(t *testing.T) {
	var out []*netsim.Packet
	g, _, k := newTestGateway(t, func(c *Config) {
		c.Policy = PolicyReflectSource
		c.ExternalOut = func(_ sim.Time, p *netsim.Packet) { out = append(out, p) }
	})
	if d := g.HandleOutbound(k.Now(), syn(mon(0), 0)); d != DispDropped {
		t.Errorf("reply to 0.0.0.0 before it made contact: disposition %v, want %v", d, DispDropped)
	}
	g.HandleInbound(k.Now(), syn(0, mon(0)))
	k.Run()
	if d := g.HandleOutbound(k.Now(), syn(mon(0), 0)); d != DispToSource {
		t.Errorf("reply to 0.0.0.0: disposition %v, want %v", d, DispToSource)
	}
	if d := g.HandleOutbound(k.Now(), syn(mon(0), ext(1))); d != DispDropped {
		t.Errorf("reply to a non-peer: disposition %v, want %v", d, DispDropped)
	}
	if len(out) != 1 || out[0].Dst != 0 {
		t.Errorf("externalized %v, want the one reply to 0.0.0.0", out)
	}
	for i := 1; i <= maxPeers; i++ {
		g.HandleInbound(k.Now(), syn(ext(i), mon(0)))
	}
	k.Run()
	if d := g.HandleOutbound(k.Now(), syn(mon(0), 0)); d != DispDropped {
		t.Errorf("reply to 0.0.0.0 after its eviction: disposition %v, want %v", d, DispDropped)
	}
}
