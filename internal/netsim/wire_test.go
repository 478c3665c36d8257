package netsim

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, p *Packet) *Packet {
	t.Helper()
	b := p.Marshal()
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("Unmarshal(%s): %v", p, err)
	}
	return got
}

func TestTCPRoundTrip(t *testing.T) {
	p := &Packet{
		Src: MustParseAddr("1.2.3.4"), Dst: MustParseAddr("5.6.7.8"),
		Proto: ProtoTCP, TTL: 61, ID: 777,
		SrcPort: 31337, DstPort: 445, Seq: 0xdeadbeef, Ack: 42,
		Flags: FlagSYN | FlagACK, Window: 8192,
		Payload: []byte("exploit bytes"),
	}
	got := roundTrip(t, p)
	if got.Src != p.Src || got.Dst != p.Dst || got.Proto != p.Proto || got.TTL != p.TTL ||
		got.ID != p.ID || got.SrcPort != p.SrcPort || got.DstPort != p.DstPort ||
		got.Seq != p.Seq || got.Ack != p.Ack || got.Flags != p.Flags || got.Window != p.Window ||
		!bytes.Equal(got.Payload, p.Payload) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, p)
	}
}

func TestUDPRoundTrip(t *testing.T) {
	p := UDPDatagram(MustParseAddr("9.9.9.9"), MustParseAddr("10.0.0.1"), 1434, 1434, []byte{0x04, 0x01, 0x01})
	p.ID = 3
	got := roundTrip(t, p)
	if got.SrcPort != 1434 || got.DstPort != 1434 || !bytes.Equal(got.Payload, p.Payload) {
		t.Errorf("udp mismatch: %+v", got)
	}
}

func TestUDPEmptyPayload(t *testing.T) {
	p := UDPDatagram(1, 2, 53, 53, nil)
	got := roundTrip(t, p)
	if got.Payload != nil {
		t.Errorf("payload = %v, want nil", got.Payload)
	}
}

func TestICMPRoundTrip(t *testing.T) {
	p := ICMPEcho(MustParseAddr("8.8.8.8"), MustParseAddr("10.1.2.3"), true)
	p.ICMPCode = 0
	p.Payload = []byte("ping")
	got := roundTrip(t, p)
	if got.ICMPType != 8 || got.ICMPCode != 0 || !bytes.Equal(got.Payload, []byte("ping")) {
		t.Errorf("icmp mismatch: %+v", got)
	}
}

func TestUnmarshalRejectsCorruptIPChecksum(t *testing.T) {
	b := TCPSyn(1, 2, 3, 4, 5).Marshal()
	b[10] ^= 0xff
	if _, err := Unmarshal(b); err != ErrBadChecksum {
		t.Errorf("err = %v, want ErrBadChecksum", err)
	}
}

func TestUnmarshalRejectsCorruptTCPChecksum(t *testing.T) {
	p := TCPSyn(1, 2, 3, 4, 5)
	p.Payload = []byte("data")
	b := p.Marshal()
	b[len(b)-1] ^= 0x01 // flip payload bit; TCP checksum now wrong
	if _, err := Unmarshal(b); err != ErrBadChecksum {
		t.Errorf("err = %v, want ErrBadChecksum", err)
	}
}

func TestUnmarshalRejectsCorruptUDPChecksum(t *testing.T) {
	b := UDPDatagram(1, 2, 3, 4, []byte("xy")).Marshal()
	b[len(b)-1] ^= 0x80
	if _, err := Unmarshal(b); err != ErrBadChecksum {
		t.Errorf("err = %v, want ErrBadChecksum", err)
	}
}

func TestUnmarshalAcceptsUDPNoChecksum(t *testing.T) {
	b := UDPDatagram(1, 2, 3, 4, []byte("xy")).Marshal()
	// Zero the UDP checksum field: RFC 768 "no checksum".
	b[ipHeaderLen+6], b[ipHeaderLen+7] = 0, 0
	if _, err := Unmarshal(b); err != nil {
		t.Errorf("zero-checksum UDP rejected: %v", err)
	}
}

func TestUnmarshalTruncated(t *testing.T) {
	b := TCPSyn(1, 2, 3, 4, 5).Marshal()
	for _, n := range []int{0, 1, 19} {
		if _, err := Unmarshal(b[:n]); err != ErrTruncated {
			t.Errorf("len %d: err = %v, want ErrTruncated", n, err)
		}
	}
	// Total length claims more than available.
	c := append([]byte(nil), b...)
	binary.BigEndian.PutUint16(c[2:], uint16(len(c)+4))
	// Fix IP checksum so truncation is what trips.
	c[10], c[11] = 0, 0
	s := checksum(0, c[:ipHeaderLen])
	binary.BigEndian.PutUint16(c[10:], s)
	if _, err := Unmarshal(c); err != ErrTruncated {
		t.Errorf("oversize total: err = %v, want ErrTruncated", err)
	}
}

func TestUnmarshalRejectsIPv6(t *testing.T) {
	b := TCPSyn(1, 2, 3, 4, 5).Marshal()
	b[0] = 0x65
	if _, err := Unmarshal(b); err != ErrBadVersion {
		t.Errorf("err = %v, want ErrBadVersion", err)
	}
}

func TestMarshalIntoMatchesMarshal(t *testing.T) {
	p := TCPSyn(100, 200, 300, 400, 500)
	p.Payload = []byte("abcdef")
	buf := make([]byte, 2048)
	n := p.MarshalInto(buf)
	if !bytes.Equal(buf[:n], p.Marshal()) {
		t.Error("MarshalInto differs from Marshal")
	}
}

func TestMarshalIntoShortBufferPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	TCPSyn(1, 2, 3, 4, 5).MarshalInto(make([]byte, 10))
}

// Property: marshal then unmarshal is the identity on header fields and
// payload for all three transports.
func TestWireRoundTripProperty(t *testing.T) {
	err := quick.Check(func(src, dst uint32, sp, dp uint16, seq, ack uint32, flags byte, proto byte, payload []byte) bool {
		p := &Packet{
			Src: Addr(src), Dst: Addr(dst), TTL: 64, ID: uint16(seq),
			SrcPort: sp, DstPort: dp, Seq: seq, Ack: ack,
			Flags: flags & 0x3f, Window: dp,
			Payload: payload,
		}
		switch proto % 3 {
		case 0:
			p.Proto = ProtoTCP
		case 1:
			p.Proto = ProtoUDP
		case 2:
			p.Proto = ProtoICMP
			p.ICMPType = flags
			p.ICMPCode = byte(sp)
		}
		if len(p.Payload) == 0 {
			p.Payload = nil
		}
		got, err := Unmarshal(p.Marshal())
		if err != nil {
			return false
		}
		if got.Src != p.Src || got.Dst != p.Dst || got.Proto != p.Proto {
			return false
		}
		if !bytes.Equal(got.Payload, p.Payload) {
			return false
		}
		switch p.Proto {
		case ProtoTCP:
			return got.SrcPort == p.SrcPort && got.DstPort == p.DstPort &&
				got.Seq == p.Seq && got.Ack == p.Ack && got.Flags == p.Flags
		case ProtoUDP:
			return got.SrcPort == p.SrcPort && got.DstPort == p.DstPort
		case ProtoICMP:
			return got.ICMPType == p.ICMPType && got.ICMPCode == p.ICMPCode
		}
		return true
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}

// Property: single-bit corruption anywhere in a TCP packet is detected by
// either the IP or TCP checksum (headers and payload are both covered).
func TestChecksumDetectsBitFlips(t *testing.T) {
	p := &Packet{
		Src: MustParseAddr("1.2.3.4"), Dst: MustParseAddr("4.3.2.1"),
		Proto: ProtoTCP, TTL: 64, SrcPort: 80, DstPort: 8080,
		Payload: []byte("some payload for coverage"),
	}
	orig := p.Marshal()
	for i := 0; i < len(orig)*8; i++ {
		b := append([]byte(nil), orig...)
		b[i/8] ^= 1 << (i % 8)
		got, err := Unmarshal(b)
		if err != nil {
			continue // detected, good
		}
		// A flip in the length field can change semantics without failing
		// checksum only if it produced a shorter-but-valid packet; the
		// fixed-size headers make that impossible here, so any successful
		// parse must equal the original in every field we compare.
		if got.Src != p.Src || got.Dst != p.Dst || got.SrcPort != p.SrcPort ||
			got.DstPort != p.DstPort || !bytes.Equal(got.Payload, p.Payload) {
			t.Fatalf("bit flip %d undetected and changed packet", i)
		}
	}
}

func TestFlagString(t *testing.T) {
	if s := FlagString(FlagSYN | FlagACK); s != "SA" {
		t.Errorf("FlagString(SYN|ACK) = %q", s)
	}
	if s := FlagString(0); s != "." {
		t.Errorf("FlagString(0) = %q", s)
	}
}
