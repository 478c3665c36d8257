package core

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"
	"weak"

	"potemkin/internal/farm"
	"potemkin/internal/gateway"
	"potemkin/internal/guest"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
)

// closedEngine runs a two-shard engine until packets have crossed shards
// through the exchange and the domains' envelope free lists, closes it,
// and returns the only thing left of it: a weak pointer. It is its own
// function so no frame of the test holds the engine when the collector
// runs.
//
//go:noinline
func closedEngine(t *testing.T) (wp weak.Pointer[ShardEngine], crossed int) {
	gc := gateway.DefaultConfig()
	gc.IdleTimeout = 2 * time.Second
	gc.ReflectionLimit = 64
	fc := farm.DefaultConfig()
	fc.Servers = 2
	fc.Profile = guest.MultiStageDNS("update.evil.example")
	eng, err := NewShardEngine(ShardEngineConfig{Shards: 2, Seed: 3, Gateway: gc, Farm: fc})
	if err != nil {
		t.Fatal(err)
	}
	eng.runner.SetEpochObserver(func(s sim.EpochStats) { crossed += s.ExchangeMsgs })
	for i := 0; i < 4; i++ {
		pkt := netsim.TCPSyn(0xc6336400+netsim.Addr(i), netsim.MustParseAddr("10.5.7.20")+netsim.Addr(i), 40000, fc.Profile.ScanDstPort, 1)
		pkt.Flags |= netsim.FlagPSH
		pkt.Payload = fc.Profile.ExploitPayload(0)
		eng.Inject(pkt)
	}
	eng.RunFor(3 * time.Second) // infections resolve, fetch and scan across shards
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	return weak.Make(eng), crossed
}

// TestClosedEngineCollectedByOneGC: a closed engine nothing refers to
// is garbage at the next collection, because nothing process-global
// holds any part of it: cross-shard packets wait in the engine's own
// exchange rings and ride envelopes off each domain's own free list.
// (When cross-shard envelopes came from a sync.Pool, which the runtime
// keeps with its contents for a further cycle, a multi-gigabyte farm
// outlived its Close by one collection; make vet now keeps sync.Pool
// out of the engine.)
func TestClosedEngineCollectedByOneGC(t *testing.T) {
	// One collection means the one below: a background cycle mid-run
	// would age anything the runtime holds for a cycle by the very
	// cycle under test. And one P: on several, about one collection in
	// three leaves a dropped engine marked for a further cycle whatever
	// refers to it (a heap dump taken after such a cycle shows no root
	// reaching it), and this test is about references, not about
	// floating garbage.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	wp, crossed := closedEngine(t)
	if crossed == 0 {
		t.Fatal("nothing crossed shards: no envelope went through the pool, the test proves nothing")
	}
	runtime.GC()
	if wp.Value() != nil {
		t.Fatalf("engine still reachable one collection after Close (%d envelopes went through its pool)", crossed)
	}
}
