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

// TestPeerSetMatchesMapModel feeds one binding's peer set and the map
// model the same arrivals, through HandleInbound, and requires the same
// members and the same arrival order after every packet: so the same
// peers are evicted, in the same order. Three tenants in turn use the
// same recycled binding. The subtest is named for the limit, maxPeers.
func TestPeerSetMatchesMapModel(t *testing.T) {
	t.Run(fmt.Sprint(maxPeers), func(t *testing.T) {
		g, _, k := newTestGateway(t, nil)
		rng := sim.NewRNG(maxPeers)
		const pool = 2*maxPeers + 3
		var first *Binding
		for tenant := 0; tenant < 3; tenant++ {
			ref := refPeers{peers: map[netsim.Addr]struct{}{}}
			for i := 0; i < 4*maxPeers+20; i++ {
				src := ext(int(rng.Uint64n(pool)))
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
					_, want := ref.peers[ext(p)]
					if b.isPeer(ext(p)) != want {
						t.Fatalf("tenant %d, packet %d: isPeer(ext(%d)) = %v", tenant, i, p, !want)
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
