package telescope

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
	"time"

	"potemkin/internal/netsim"
	"potemkin/internal/sim"
)

// TestGeneratePinned pins Generate's output for the trace the benchmark's
// replay-radiation workload replays first (a /16 at 1,000 pps for 20 s,
// seed forked as "radiation-0" from the run's seed), at the development
// and check seeds. Generate sorts on At alone with an unstable sort, and
// about a quarter of these records tie with their predecessor on At, so
// the order of the ties is whatever the sort algorithm leaves: a
// toolchain whose sort.Slice permutes differently moves every replay
// digest. If this test fails after a Go upgrade, that is why.
func TestGeneratePinned(t *testing.T) {
	for _, c := range []struct {
		seed    uint64
		records int
		ties    int
		hash    uint64
	}{
		{1, 19886, 5005, 0x8b4e785eb1c2c8b6},
		{2, 20000, 5005, 0x0d0374b2539c9587},
	} {
		gc := DefaultGenConfig()
		gc.Space = netsim.MustParsePrefix("10.5.0.0/16")
		gc.Duration = 20 * time.Second
		gc.Rate = 1000
		gc.Seed = sim.NewRNG(c.seed).Fork("radiation-0").Uint64()
		recs, err := Generate(gc)
		if err != nil {
			t.Fatal(err)
		}
		ties := 0
		for i := 1; i < len(recs); i++ {
			if recs[i].At == recs[i-1].At {
				ties++
			}
		}
		if got := recordsHash(recs); len(recs) != c.records || ties != c.ties || got != c.hash {
			t.Errorf("seed %d: %d records, %d tied on At, hash %#016x; want %d, %d, %#016x",
				c.seed, len(recs), ties, got, c.records, c.ties, c.hash)
		}
	}
}

// recordsHash is an FNV-1a hash of every field of every record, in order.
func recordsHash(recs []Record) uint64 {
	h := fnv.New64a()
	var b [32]byte
	for i := range recs {
		r := &recs[i]
		binary.LittleEndian.PutUint64(b[0:], uint64(r.At))
		binary.LittleEndian.PutUint32(b[8:], uint32(r.Src))
		binary.LittleEndian.PutUint32(b[12:], uint32(r.Dst))
		b[16] = byte(r.Proto)
		binary.LittleEndian.PutUint16(b[17:], r.SrcPort)
		binary.LittleEndian.PutUint16(b[19:], r.DstPort)
		b[21] = r.Flags
		binary.LittleEndian.PutUint16(b[22:], r.PayLen)
		binary.LittleEndian.PutUint64(b[24:], uint64(len(r.Payload)))
		h.Write(b[:])
		h.Write(r.Payload)
	}
	return h.Sum64()
}
