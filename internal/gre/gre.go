// Package gre implements GRE encapsulation (RFC 2784) with the key and
// sequence-number extensions (RFC 2890), over real bytes.
//
// Potemkin's gateway receives telescope traffic tunnelled from border
// routers and forwards bound packets to farm servers over further GRE
// tunnels; the key field carries the tunnel/VM binding ID. This package
// provides the header codec and a Tunnel helper that wraps inner IPv4
// packets in an outer IPv4+GRE envelope on the netsim substrate.
package gre

import (
	"encoding/binary"
	"errors"

	"potemkin/internal/netsim"
)

// Header field flags (first byte of the header).
const (
	flagChecksum = 0x80
	flagKey      = 0x20
	flagSequence = 0x10
	// Routing (0x40) and all RFC 1701 extensions beyond key/sequence are
	// obsolete; packets carrying them are rejected.
	reservedMask = 0x4f
)

// protoIPv4 is the EtherType GRE uses for encapsulated IPv4.
const protoIPv4 = 0x0800

// Codec errors.
var (
	ErrTruncated   = errors.New("gre: truncated header")
	ErrBadVersion  = errors.New("gre: unsupported version")
	ErrBadProto    = errors.New("gre: unsupported payload protocol")
	ErrReserved    = errors.New("gre: reserved flag set")
	ErrBadChecksum = errors.New("gre: bad checksum")
)

// Header is the parsed GRE header.
type Header struct {
	HasChecksum bool
	HasKey      bool
	HasSequence bool
	Key         uint32
	Sequence    uint32
}

// Len returns the encoded header size in bytes.
func (h *Header) Len() int {
	n := 4
	if h.HasChecksum {
		n += 4
	}
	if h.HasKey {
		n += 4
	}
	if h.HasSequence {
		n += 4
	}
	return n
}

// internetChecksum is the RFC 1071 checksum over data.
func internetChecksum(data []byte) uint16 {
	var sum uint32
	n := len(data)
	for i := 0; i+1 < n; i += 2 {
		sum += uint32(data[i])<<8 | uint32(data[i+1])
	}
	if n%2 == 1 {
		sum += uint32(data[n-1]) << 8
	}
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	return ^uint16(sum)
}

// Encap prepends a GRE header to an inner IPv4 payload and returns the
// GRE packet bytes.
func Encap(h *Header, inner []byte) []byte {
	buf := make([]byte, h.Len()+len(inner))
	EncapInto(h, buf, inner)
	return buf
}

// EncapInto serializes the GRE packet into buf, which must be at least
// h.Len()+len(inner) bytes, and returns the number of bytes written. The
// wire-send fast paths (cmd/floodgen, the ingest replayer) use this to
// encapsulate without per-packet allocation.
func EncapInto(h *Header, buf, inner []byte) int {
	total := h.Len() + len(inner)
	if len(buf) < total {
		panic("gre: EncapInto buffer too small")
	}
	buf = buf[:total]
	var flags byte
	if h.HasChecksum {
		flags |= flagChecksum
	}
	if h.HasKey {
		flags |= flagKey
	}
	if h.HasSequence {
		flags |= flagSequence
	}
	buf[0] = flags
	buf[1] = 0 // version 0
	binary.BigEndian.PutUint16(buf[2:], protoIPv4)
	off := 4
	ckOff := -1
	if h.HasChecksum {
		ckOff = off
		off += 4 // checksum + reserved1, filled below
	}
	if h.HasKey {
		binary.BigEndian.PutUint32(buf[off:], h.Key)
		off += 4
	}
	if h.HasSequence {
		binary.BigEndian.PutUint32(buf[off:], h.Sequence)
		off += 4
	}
	copy(buf[off:], inner)
	if ckOff >= 0 {
		sum := internetChecksum(buf)
		binary.BigEndian.PutUint16(buf[ckOff:], sum)
	}
	return total
}

// Decap parses a GRE packet, returning the header and the inner payload
// (aliasing b). The checksum, if present, is verified.
func Decap(b []byte) (Header, []byte, error) {
	var h Header
	if len(b) < 4 {
		return h, nil, ErrTruncated
	}
	flags := b[0]
	if b[1]&0x07 != 0 {
		return h, nil, ErrBadVersion
	}
	if flags&reservedMask != 0 || b[1]&0xf8 != 0 {
		return h, nil, ErrReserved
	}
	if binary.BigEndian.Uint16(b[2:]) != protoIPv4 {
		return h, nil, ErrBadProto
	}
	h.HasChecksum = flags&flagChecksum != 0
	h.HasKey = flags&flagKey != 0
	h.HasSequence = flags&flagSequence != 0
	if len(b) < h.Len() {
		return Header{}, nil, ErrTruncated
	}
	off := 4
	if h.HasChecksum {
		if internetChecksum(b) != 0 {
			return Header{}, nil, ErrBadChecksum
		}
		off += 4
	}
	if h.HasKey {
		h.Key = binary.BigEndian.Uint32(b[off:])
		off += 4
	}
	if h.HasSequence {
		h.Sequence = binary.BigEndian.Uint32(b[off:])
		off += 4
	}
	return h, b[off:], nil
}

// Tunnel encapsulates inner packets for one GRE tunnel endpoint pair on
// the netsim substrate. Each outgoing packet carries the tunnel key and a
// monotonically increasing sequence number.
type Tunnel struct {
	Local, Remote netsim.Addr
	Key           uint32
	WithChecksum  bool

	seq uint32
}

// NewTunnel returns a tunnel from local to remote using key.
func NewTunnel(local, remote netsim.Addr, key uint32) *Tunnel {
	return &Tunnel{Local: local, Remote: remote, Key: key}
}

// Wrap encapsulates inner (an IPv4 packet) into an outer IPv4/GRE packet
// addressed to the tunnel remote.
func (t *Tunnel) Wrap(inner *netsim.Packet) *netsim.Packet {
	h := Header{HasKey: true, HasSequence: true, HasChecksum: t.WithChecksum, Key: t.Key, Sequence: t.seq}
	t.seq++
	return &netsim.Packet{
		Src: t.Local, Dst: t.Remote, Proto: netsim.ProtoGRE, TTL: 64,
		Payload: Encap(&h, inner.Marshal()),
	}
}
