// Package telescope is the traffic substrate standing in for the paper's
// UCSD network-telescope feed: a generator that synthesizes background
// radiation with the statistical structure that matters to honeyfarm
// multiplexing (heavy-tailed per-address popularity, scanner sweep
// sessions, Poisson background), and a replayer that injects a trace
// into the gateway over the sim kernel. Traces on disk are classic pcap
// savefiles, read and written by internal/ingest.
package telescope

import (
	"bytes"

	"potemkin/internal/netsim"
	"potemkin/internal/sim"
)

// Record is one captured/synthesized packet arrival. Payload carries
// actual content when the producer has it (scenario exploit steps need
// the signature bytes to reach the guest); most telescope records carry
// only PayLen, the snap-length-zero convention of the original feed.
type Record struct {
	At      sim.Time
	Src     netsim.Addr
	Dst     netsim.Addr
	Proto   netsim.Proto
	SrcPort uint16
	DstPort uint16
	Flags   byte // TCP flags
	PayLen  uint16
	Payload []byte // optional content; when set, len(Payload) == PayLen
}

// Packet materializes the record as a wire-ready packet. When the
// record carries content the packet gets a copy of it; otherwise
// payload bytes are zero-filled to PayLen (telescope traces carry
// sizes, not content).
func (r *Record) Packet() *netsim.Packet {
	p := r.header()
	switch {
	case len(r.Payload) > 0:
		p.Payload = append([]byte(nil), r.Payload...)
	case r.PayLen > 0:
		p.Payload = make([]byte, r.PayLen)
	}
	return &p
}

// zeroPayload stands in for the payloads a trace gives only a length
// for (PayLen is a uint16, so it covers every record). Nothing writes
// it: every packet PacketInto builds for such a record aliases it.
var zeroPayload [1<<16 - 1]byte

// PacketInto builds in p what Packet would return, without allocating:
// stored content is aliased, not copied (every Source leaves a record's
// payload intact once read), and a length-only payload aliases a shared
// run of zero bytes. p is marked Ephemeral, so a receiver that keeps it
// past the dispatch it arrives in Clones it first.
func (r *Record) PacketInto(p *netsim.Packet) {
	*p = r.header()
	p.Ephemeral = true
	switch {
	case len(r.Payload) > 0:
		p.Payload = r.Payload
	case r.PayLen > 0:
		p.Payload = zeroPayload[:r.PayLen]
	}
}

// header is the record's packet without its payload.
func (r *Record) header() netsim.Packet {
	p := netsim.Packet{
		Src: r.Src, Dst: r.Dst, Proto: r.Proto, TTL: 116,
		SrcPort: r.SrcPort, DstPort: r.DstPort, Flags: r.Flags,
	}
	if r.Proto == netsim.ProtoICMP {
		p.ICMPType = 8
	}
	return p
}

// Equal reports whether two records are identical, payload content
// included (Record is not ==-comparable because of the payload slice).
func (r *Record) Equal(o *Record) bool {
	return r.At == o.At && r.Src == o.Src && r.Dst == o.Dst &&
		r.Proto == o.Proto && r.SrcPort == o.SrcPort && r.DstPort == o.DstPort &&
		r.Flags == o.Flags && r.PayLen == o.PayLen &&
		bytes.Equal(r.Payload, o.Payload)
}

// RecordOf captures a live packet as a trace record at virtual time
// now. Payload bytes are not retained, only their length, like a
// snap-length-zero tcpdump; a reader that keeps content copies it.
func RecordOf(now sim.Time, pkt *netsim.Packet) Record {
	return Record{
		At:      now,
		Src:     pkt.Src,
		Dst:     pkt.Dst,
		Proto:   pkt.Proto,
		SrcPort: pkt.SrcPort,
		DstPort: pkt.DstPort,
		Flags:   pkt.Flags,
		PayLen:  uint16(len(pkt.Payload)),
	}
}
