package ingest

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"potemkin/internal/netsim"
	"potemkin/internal/telescope"
)

// FuzzPcapRead: pcap files come from outside the trust boundary (any
// capture a user replays). Hostile headers and record lengths must
// neither panic, nor hang, nor allocate absurd buffers — the oversize
// guard refuses length fields beyond maxPcapPacket before allocating.
// And every record the source accepts survives WritePcap and a second
// read exactly: pcap is the one trace format, so a trace read, written
// and read again must be the same trace.
func FuzzPcapRead(f *testing.F) {
	// Seed with a valid file...
	var valid bytes.Buffer
	pw, _ := NewPcapWriter(&valid)
	pkt := netsim.TCPSyn(netsim.MustParseAddr("1.2.3.4"), netsim.MustParseAddr("10.5.0.9"), 4444, 445, 7)
	pw.WritePacket(1e9, pkt.Marshal())
	pw.WritePacket(2e9, []byte{0x60, 1, 2, 3}) // one unconvertible frame
	pw.Flush()
	f.Add(valid.Bytes())
	// ...a truncated one, a big-endian µs header, and a length bomb.
	f.Add(valid.Bytes()[:pcapFileHeaderLen+pcapRecordHeaderLen-3])
	beHdr := make([]byte, pcapFileHeaderLen)
	binary.BigEndian.PutUint32(beHdr[0:], pcapMagicUS)
	binary.BigEndian.PutUint16(beHdr[4:], pcapVMajor)
	binary.BigEndian.PutUint32(beHdr[20:], LinkTypeEthernet)
	f.Add(beHdr)
	bomb := append(append([]byte{}, valid.Bytes()[:pcapFileHeaderLen]...), make([]byte, pcapRecordHeaderLen)...)
	binary.LittleEndian.PutUint32(bomb[pcapFileHeaderLen+8:], 1<<31)
	f.Add(bomb)

	f.Fuzz(func(t *testing.T, data []byte) {
		pr, err := NewPcapReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Bound the work: a file of n bytes can hold at most n records.
		for i := 0; i <= len(data); i++ {
			_, pktBytes, err := pr.Next()
			if err != nil {
				break
			}
			if len(pktBytes) > maxPcapPacket {
				t.Fatalf("reader admitted %d-byte record", len(pktBytes))
			}
		}

		// The record source must likewise survive anything.
		src, err := NewPcapSource(bytes.NewReader(data))
		if err != nil {
			return
		}
		var recs []telescope.Record
		for i := 0; i <= len(data); i++ {
			var rec telescope.Record
			if err := src.Read(&rec); err != nil {
				break
			}
			recs = append(recs, rec)
		}

		var out bytes.Buffer
		if _, err := WritePcap(&out, &telescope.SliceSource{Recs: recs}); err != nil {
			t.Fatalf("re-write of %d accepted records: %v", len(recs), err)
		}
		again, err := NewPcapSource(&out)
		if err != nil {
			t.Fatal(err)
		}
		for i := range recs {
			var rec telescope.Record
			if err := again.Read(&rec); err != nil {
				t.Fatalf("re-read record %d of %d: %v", i, len(recs), err)
			}
			if !rec.Equal(&recs[i]) {
				t.Fatalf("record %d diverged: read %+v, re-read %+v", i, recs[i], rec)
			}
		}
		if err := again.Read(new(telescope.Record)); err != io.EOF {
			t.Fatalf("after %d records: %v, want io.EOF", len(recs), err)
		}
	})
}
