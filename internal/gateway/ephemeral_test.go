package gateway

import (
	"bytes"
	"testing"

	"potemkin/internal/netsim"
)

// TestEphemeralPacketClonedWhenQueued models the zero-copy ingest path:
// the wire bridge hands the gateway a packet backed by a pooled frame
// buffer, marked Ephemeral, and reuses the storage as soon as the
// dispatch returns. A packet queued on a pending binding must therefore
// be copied — the bytes delivered to the VM later must be the ones that
// arrived, not whatever the pool wrote next. The copy lives in storage
// the gateway reuses once the flush has delivered it, so it too arrives
// marked Ephemeral (fakeVM clones it to keep it).
func TestEphemeralPacketClonedWhenQueued(t *testing.T) {
	g, fb, k := newTestGateway(t, nil)

	backing := []byte("original exploit bytes")
	pkt := syn(ext(0), mon(0))
	pkt.Payload = backing
	pkt.Ephemeral = true
	g.HandleInbound(k.Now(), pkt)

	// The "frame pool" reclaims the storage: scribble over the payload
	// and the packet struct itself.
	copy(backing, bytes.Repeat([]byte("X"), len(backing)))
	*pkt = netsim.Packet{}

	k.Run() // clone completes, queued packets flush to the VM
	if len(fb.spawned) != 1 || len(fb.spawned[0].delivered) != 1 {
		t.Fatalf("expected 1 delivered packet, got %+v", fb.spawned)
	}
	got := fb.spawned[0].delivered[0]
	if string(got.Payload) != "original exploit bytes" {
		t.Fatalf("delivered payload = %q — pending queue aliased the pooled frame", got.Payload)
	}
	if !fb.spawned[0].ephemeral[0] {
		t.Fatal("queued copy delivered without the Ephemeral mark, though the gateway reuses its storage")
	}
	if got.Dst != mon(0) || got.Src != ext(0) {
		t.Fatalf("delivered header corrupted: %+v", got)
	}
}
