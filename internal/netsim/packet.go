package netsim

import "fmt"

// Proto is an IP protocol number.
type Proto byte

// Protocol numbers used by the honeyfarm.
const (
	ProtoICMP Proto = 1
	ProtoTCP  Proto = 6
	ProtoUDP  Proto = 17
	ProtoGRE  Proto = 47
)

// String names the protocol.
func (p Proto) String() string {
	switch p {
	case ProtoICMP:
		return "icmp"
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	case ProtoGRE:
		return "gre"
	default:
		return fmt.Sprintf("proto(%d)", byte(p))
	}
}

// TCP header flag bits.
const (
	FlagFIN = 1 << 0
	FlagSYN = 1 << 1
	FlagRST = 1 << 2
	FlagPSH = 1 << 3
	FlagACK = 1 << 4
)

// FlagString renders TCP flags as "SA", "R", etc.
func FlagString(flags byte) string {
	const names = "FSRPAU"
	var b []byte
	for i := 0; i < len(names); i++ {
		if flags&(1<<i) != 0 {
			b = append(b, names[i])
		}
	}
	if len(b) == 0 {
		return "."
	}
	return string(b)
}

// Packet is a parsed IPv4 datagram plus the transport header fields the
// honeyfarm cares about. The wire codec in wire.go converts between
// Packet and real bytes.
type Packet struct {
	Src, Dst Addr
	Proto    Proto
	TTL      byte
	ID       uint16 // IP identification

	// Transport fields; which are meaningful depends on Proto.
	SrcPort, DstPort uint16 // TCP/UDP
	Seq, Ack         uint32 // TCP
	Flags            byte   // TCP
	Window           uint16 // TCP
	ICMPType         byte   // ICMP
	ICMPCode         byte   // ICMP

	Payload []byte

	// Ephemeral marks a packet whose storage (typically a pooled wire
	// frame) is reclaimed when the current dispatch returns: consumers
	// may read it synchronously but must Clone before retaining it —
	// queueing it, capturing it into a closure. It is a transient
	// dispatch property, not part of the packet's identity: Clone
	// clears it and the wire and cluster codecs do not carry it.
	Ephemeral bool
}

// Clone returns a deep copy (payload included). The copy is always
// retainable: Ephemeral is cleared.
func (p *Packet) Clone() *Packet {
	q := *p
	if p.Payload != nil {
		q.Payload = append([]byte(nil), p.Payload...)
	}
	q.Ephemeral = false
	return &q
}

// String summarizes the packet for logs.
func (p *Packet) String() string {
	switch p.Proto {
	case ProtoTCP:
		return fmt.Sprintf("tcp %s:%d > %s:%d [%s] seq=%d ack=%d len=%d",
			p.Src, p.SrcPort, p.Dst, p.DstPort, FlagString(p.Flags), p.Seq, p.Ack, len(p.Payload))
	case ProtoUDP:
		return fmt.Sprintf("udp %s:%d > %s:%d len=%d", p.Src, p.SrcPort, p.Dst, p.DstPort, len(p.Payload))
	case ProtoICMP:
		return fmt.Sprintf("icmp %s > %s type=%d code=%d", p.Src, p.Dst, p.ICMPType, p.ICMPCode)
	default:
		return fmt.Sprintf("%s %s > %s len=%d", p.Proto, p.Src, p.Dst, len(p.Payload))
	}
}

// TCPSyn builds a connection-opening probe, the telescope's most common
// packet.
func TCPSyn(src, dst Addr, srcPort, dstPort uint16, seq uint32) *Packet {
	return &Packet{
		Src: src, Dst: dst, Proto: ProtoTCP, TTL: 64,
		SrcPort: srcPort, DstPort: dstPort, Seq: seq,
		Flags: FlagSYN, Window: 65535,
	}
}

// UDPDatagram builds a UDP packet with the given payload.
func UDPDatagram(src, dst Addr, srcPort, dstPort uint16, payload []byte) *Packet {
	return &Packet{
		Src: src, Dst: dst, Proto: ProtoUDP, TTL: 64,
		SrcPort: srcPort, DstPort: dstPort, Payload: payload,
	}
}

// ICMPEcho builds an echo request (type 8) or reply (type 0).
func ICMPEcho(src, dst Addr, request bool) *Packet {
	t := byte(0)
	if request {
		t = 8
	}
	return &Packet{Src: src, Dst: dst, Proto: ProtoICMP, TTL: 64, ICMPType: t}
}
