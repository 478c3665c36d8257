package gateway

import "potemkin/internal/netsim"

// Held packets: every packet the gateway keeps past the call that handed
// it over — an arrival queued on a pending binding — or builds itself —
// a scan rewritten by reflection, a lookup rewritten to the resolver —
// is a copy in a packet off the gateway's free list. Each keeps its
// struct and its payload capacity across tenants, so once the list is
// warm holding a packet allocates nothing. A held packet goes out marked Ephemeral: its
// storage is reused once the gateway is done with it, so a consumer
// that keeps it must Clone it (the farm's link hop copies it).
//
// The free list keeps at most one spare per live binding: a warm-up that
// queued pendingLimit packets on each of many pending bindings would
// otherwise pin all of them for the rest of the run, because the scrub's
// trim (Gateway.trimFree) keeps what the largest period took.

// hold copies pkt into a packet off the free list, marked Ephemeral.
// Release it with drop once the gateway is done with it. Holds nest: a
// guest that replies synchronously may reach a site that holds another
// packet while this one is still in use.
func (g *Gateway) hold(pkt *netsim.Packet) *netsim.Packet {
	h, ok := g.freeHeld.Get()
	if !ok {
		h = new(netsim.Packet)
	}
	buf := h.Payload[:0]
	*h = *pkt
	h.Payload = append(buf, pkt.Payload...)
	h.Ephemeral = true
	return h
}

// drop returns h to the free list, or leaves it to the collector when
// the list already holds a spare for every live binding.
func (g *Gateway) drop(h *netsim.Packet) {
	*h = netsim.Packet{Payload: h.Payload[:0]}
	g.freeHeld.PutBelow(h, len(g.bindings))
}
