package ingest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"time"

	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/telescope"
)

func testRecords(t *testing.T, n int) []telescope.Record {
	t.Helper()
	cfg := telescope.DefaultGenConfig()
	cfg.Duration = 20 * time.Second
	cfg.Rate = float64(n) / 20
	cfg.Seed = 99
	recs, err := telescope.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("empty generated trace")
	}
	return recs
}

// TestPcapWriteReadRoundTrip proves raw packets and their nanosecond
// timestamps survive write+read exactly.
func TestPcapWriteReadRoundTrip(t *testing.T) {
	recs := testRecords(t, 500)
	var buf bytes.Buffer
	pw, err := NewPcapWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	var scratch [frameBufSize]byte
	for i := range recs {
		n := recs[i].Packet().MarshalInto(scratch[:])
		if err := pw.WritePacket(recs[i].At, scratch[:n]); err != nil {
			t.Fatal(err)
		}
		want = append(want, append([]byte(nil), scratch[:n]...))
	}
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}

	pr, err := NewPcapReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if pr.LinkType() != LinkTypeRaw {
		t.Fatalf("link type = %d, want %d", pr.LinkType(), LinkTypeRaw)
	}
	for i := range recs {
		ts, data, err := pr.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if ts != recs[i].At {
			t.Fatalf("record %d: ts = %d, want %d", i, ts, recs[i].At)
		}
		if !bytes.Equal(data, want[i]) {
			t.Fatalf("record %d: bytes differ", i)
		}
	}
	if _, _, err := pr.Next(); err != io.EOF {
		t.Fatalf("after last record: %v, want io.EOF", err)
	}
}

// TestPcapSourceRoundTrip proves record -> pcap -> record is lossless:
// the full trace re-emerges field for field.
func TestPcapSourceRoundTrip(t *testing.T) {
	recs := testRecords(t, 500)
	var buf bytes.Buffer
	n, err := WritePcap(&buf, &telescope.SliceSource{Recs: recs})
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(len(recs)) {
		t.Fatalf("wrote %d records, want %d", n, len(recs))
	}
	src, err := NewPcapSource(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var rec telescope.Record
	for i := range recs {
		if err := src.Read(&rec); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !rec.Equal(&recs[i]) {
			t.Fatalf("record %d: got %+v, want %+v", i, rec, recs[i])
		}
	}
	if err := src.Read(&rec); err != io.EOF {
		t.Fatalf("after last record: %v, want io.EOF", err)
	}
	if src.Skipped != 0 {
		t.Fatalf("Skipped = %d, want 0", src.Skipped)
	}
}

// writeForeignPcap builds a pcap file the way another tool would: given
// byte order, timestamp precision, and link type, with link headers
// wrapped around each IPv4 packet.
func writeForeignPcap(order binary.ByteOrder, nanos bool, link uint32, pkts [][]byte, ts []sim.Time) []byte {
	var buf bytes.Buffer
	hdr := make([]byte, pcapFileHeaderLen)
	magic := uint32(pcapMagicUS)
	if nanos {
		magic = pcapMagicNS
	}
	order.PutUint32(hdr[0:], magic)
	order.PutUint16(hdr[4:], pcapVMajor)
	order.PutUint16(hdr[6:], pcapVMinor)
	order.PutUint32(hdr[16:], maxPcapPacket)
	order.PutUint32(hdr[20:], link)
	buf.Write(hdr)
	for i, p := range pkts {
		var frame []byte
		switch link {
		case LinkTypeEthernet:
			eth := make([]byte, 14)
			binary.BigEndian.PutUint16(eth[12:], 0x0800)
			frame = append(eth, p...)
		case LinkTypeNull:
			af := make([]byte, 4)
			order.PutUint32(af, 2) // AF_INET
			frame = append(af, p...)
		default:
			frame = p
		}
		rec := make([]byte, pcapRecordHeaderLen)
		order.PutUint32(rec[0:], uint32(uint64(ts[i])/1e9))
		sub := uint64(ts[i]) % 1e9
		if !nanos {
			sub /= 1e3
		}
		order.PutUint32(rec[4:], uint32(sub))
		order.PutUint32(rec[8:], uint32(len(frame)))
		order.PutUint32(rec[12:], uint32(len(frame)))
		buf.Write(rec)
		buf.Write(frame)
	}
	return buf.Bytes()
}

// TestPcapForeignFormats reads files as tcpdump on various platforms
// would write them: both byte orders, both precisions, and the
// Ethernet/NULL/IPV4 link types.
func TestPcapForeignFormats(t *testing.T) {
	pkt := netsim.TCPSyn(netsim.MustParseAddr("1.2.3.4"), netsim.MustParseAddr("10.5.0.9"), 4444, 445, 7)
	raw := pkt.Marshal()
	// Microsecond files truncate: use a µs-aligned timestamp so the
	// round trip is exact in both precisions.
	at := sim.Time(3*1e9 + 123456000)

	cases := []struct {
		name  string
		order binary.ByteOrder
		nanos bool
		link  uint32
	}{
		{"le-us-raw", binary.LittleEndian, false, LinkTypeRaw},
		{"be-us-raw", binary.BigEndian, false, LinkTypeRaw},
		{"le-ns-eth", binary.LittleEndian, true, LinkTypeEthernet},
		{"be-ns-eth", binary.BigEndian, true, LinkTypeEthernet},
		{"le-ns-null", binary.LittleEndian, true, LinkTypeNull},
		{"be-us-ipv4", binary.BigEndian, false, LinkTypeIPv4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			file := writeForeignPcap(tc.order, tc.nanos, tc.link, [][]byte{raw}, []sim.Time{at})
			src, err := NewPcapSource(bytes.NewReader(file))
			if err != nil {
				t.Fatal(err)
			}
			var rec telescope.Record
			if err := src.Read(&rec); err != nil {
				t.Fatal(err)
			}
			if rec.At != at || rec.Src != pkt.Src || rec.Dst != pkt.Dst ||
				rec.DstPort != 445 || rec.Proto != netsim.ProtoTCP {
				t.Fatalf("got %+v", rec)
			}
			if err := src.Read(&rec); err != io.EOF {
				t.Fatalf("second read: %v, want io.EOF", err)
			}
		})
	}
}

// TestPcapSkipsForeignFrames proves non-IPv4 frames (ARP and friends)
// are skipped and counted, not fatal.
func TestPcapSkipsForeignFrames(t *testing.T) {
	pkt := netsim.TCPSyn(netsim.MustParseAddr("1.2.3.4"), netsim.MustParseAddr("10.5.0.9"), 4444, 445, 7)
	raw := pkt.Marshal()
	var buf bytes.Buffer
	pw, _ := NewPcapWriter(&buf)
	pw.WritePacket(1e9, []byte{0x60, 0, 0, 0}) // IPv6: not ours
	pw.WritePacket(2e9, raw)                   // good
	pw.WritePacket(3e9, []byte{0x45})          // truncated IPv4
	pw.Flush()
	src, err := NewPcapSource(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var rec telescope.Record
	if err := src.Read(&rec); err != nil || rec.At != 2e9 {
		t.Fatalf("read = %+v, %v", rec, err)
	}
	if err := src.Read(&rec); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
	if src.Skipped != 2 {
		t.Fatalf("Skipped = %d, want 2", src.Skipped)
	}
}

// TestPcapRejects covers the codec's refusal paths.
func TestPcapRejects(t *testing.T) {
	if _, err := NewPcapReader(bytes.NewReader([]byte("not a pcap file, not even close"))); !errors.Is(err, ErrPcapMagic) {
		t.Fatalf("bad magic: %v", err)
	}

	hdr := make([]byte, pcapFileHeaderLen)
	binary.LittleEndian.PutUint32(hdr[0:], pcapMagicNS)
	binary.LittleEndian.PutUint16(hdr[4:], 9) // version from the future
	binary.LittleEndian.PutUint32(hdr[20:], LinkTypeRaw)
	if _, err := NewPcapReader(bytes.NewReader(hdr)); !errors.Is(err, ErrPcapVersion) {
		t.Fatalf("bad version: %v", err)
	}

	binary.LittleEndian.PutUint16(hdr[4:], pcapVMajor)
	binary.LittleEndian.PutUint32(hdr[20:], 147) // LINKTYPE_USER0
	if _, err := NewPcapReader(bytes.NewReader(hdr)); !errors.Is(err, ErrPcapLink) {
		t.Fatalf("bad link: %v", err)
	}

	// A record header claiming a multi-megabyte packet must be refused
	// before any allocation.
	binary.LittleEndian.PutUint32(hdr[20:], LinkTypeRaw)
	rec := make([]byte, pcapRecordHeaderLen)
	binary.LittleEndian.PutUint32(rec[8:], 1<<24)
	pr, err := NewPcapReader(bytes.NewReader(append(hdr, rec...)))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pr.Next(); !errors.Is(err, ErrPcapOversize) {
		t.Fatalf("oversize: %v", err)
	}

	// A sub-second field of a second or more is no timestamp, and its
	// carry could overflow the seconds the writer stores.
	for _, magic := range []uint32{pcapMagicNS, pcapMagicUS} {
		binary.LittleEndian.PutUint32(hdr[0:], magic)
		binary.LittleEndian.PutUint32(rec[4:], 1e9)
		binary.LittleEndian.PutUint32(rec[8:], 0)
		pr, err := NewPcapReader(bytes.NewReader(append(hdr, rec...)))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := pr.Next(); !errors.Is(err, ErrPcapTime) {
			t.Fatalf("magic %#x, sub-second field 1e9: %v", magic, err)
		}
	}

	var wbuf bytes.Buffer
	pw, _ := NewPcapWriter(&wbuf)
	if err := pw.WritePacket(0, make([]byte, maxPcapPacket+1)); !errors.Is(err, ErrPcapOversize) {
		t.Fatalf("oversize write: %v", err)
	}

	// A file cut inside its last record is an error, not a clean end.
	wbuf.Reset()
	pw, _ = NewPcapWriter(&wbuf)
	pw.WritePacket(1, []byte{0x45, 1, 2, 3})
	pw.WritePacket(2, []byte{0x45, 1, 2, 3})
	pw.Flush()
	pr, err = NewPcapReader(bytes.NewReader(wbuf.Bytes()[:wbuf.Len()-2]))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pr.Next(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pr.Next(); err == nil || err == io.EOF {
		t.Fatalf("truncated record: %v", err)
	}
}
