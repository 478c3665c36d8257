// Package dns implements the small slice of the DNS protocol the
// honeyfarm's containment story needs, on real wire bytes: queries and
// responses with A records, label encoding with compression-pointer
// parsing, and a safe Resolver that answers every name with an address
// the operator controls.
//
// Potemkin's gateway must let captured malware resolve names (much
// malware does a lookup before its second-stage fetch) without letting
// it reach real infrastructure. The trick is to answer truthfully-shaped
// lies: the resolver maps every name into the monitored address space,
// so the follow-up connection lands on a honeyfarm VM and the next stage
// is captured.
package dns

import (
	"errors"
	"fmt"
	"strings"

	"potemkin/internal/netsim"
)

// Codec errors.
var (
	ErrTruncated = errors.New("dns: truncated message")
	ErrBadName   = errors.New("dns: malformed name")
	ErrPointer   = errors.New("dns: bad compression pointer")
)

// Record types and classes (the subset used).
const (
	TypeA   = 1
	ClassIN = 1
)

// Header flag bits (within the 16-bit flags field).
const (
	FlagQR = 1 << 15 // response
	FlagAA = 1 << 10 // authoritative
	FlagRD = 1 << 8  // recursion desired
	FlagRA = 1 << 7  // recursion available
)

// RCodeNXDomain is the response code for a name that does not exist.
const RCodeNXDomain = 3

// Question is one query entry.
type Question struct {
	Name  string
	Type  uint16
	Class uint16
}

// Answer is one A-record answer.
type Answer struct {
	Name string
	TTL  uint32
	Addr netsim.Addr
}

// Message is a parsed DNS message (questions + A answers; other record
// types are skipped on parse).
type Message struct {
	ID        uint16
	Flags     uint16
	Questions []Question
	Answers   []Answer
}

// Response reports whether the message is a response.
func (m *Message) Response() bool { return m.Flags&FlagQR != 0 }

// encodeName appends a DNS-encoded name (no compression on output).
func encodeName(b []byte, name string) ([]byte, error) {
	name = strings.TrimSuffix(name, ".")
	if name != "" {
		for _, label := range strings.Split(name, ".") {
			if len(label) == 0 || len(label) > 63 {
				return nil, ErrBadName
			}
			b = append(b, byte(len(label)))
			b = append(b, label...)
		}
	}
	return append(b, 0), nil
}

// decodeName reads a possibly-compressed name starting at off,
// returning the name and the offset just past it (in the uncompressed
// stream).
func decodeName(msg []byte, off int) (string, int, error) {
	var labels []string
	jumped := false
	end := off
	for hops := 0; ; hops++ {
		if hops > 63 {
			return "", 0, ErrPointer // pointer loop
		}
		if off >= len(msg) {
			return "", 0, ErrTruncated
		}
		l := int(msg[off])
		switch {
		case l == 0:
			if !jumped {
				end = off + 1
			}
			return strings.Join(labels, "."), end, nil
		case l&0xc0 == 0xc0:
			if off+1 >= len(msg) {
				return "", 0, ErrTruncated
			}
			ptr := (l&0x3f)<<8 | int(msg[off+1])
			if !jumped {
				end = off + 2
			}
			if ptr >= off {
				return "", 0, ErrPointer // forward pointers are invalid
			}
			off = ptr
			jumped = true
		case l&0xc0 != 0:
			return "", 0, ErrBadName
		default:
			if off+1+l > len(msg) {
				return "", 0, ErrTruncated
			}
			labels = append(labels, string(msg[off+1:off+1+l]))
			off += 1 + l
		}
	}
}

func put16(b []byte, v uint16) []byte { return append(b, byte(v>>8), byte(v)) }
func put32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// Marshal encodes the message.
func (m *Message) Marshal() ([]byte, error) {
	b := make([]byte, 0, 64)
	b = put16(b, m.ID)
	b = put16(b, m.Flags)
	b = put16(b, uint16(len(m.Questions)))
	b = put16(b, uint16(len(m.Answers)))
	b = put16(b, 0) // authority
	b = put16(b, 0) // additional
	var err error
	for _, q := range m.Questions {
		if b, err = encodeName(b, q.Name); err != nil {
			return nil, err
		}
		b = put16(b, q.Type)
		b = put16(b, q.Class)
	}
	for _, a := range m.Answers {
		if b, err = encodeName(b, a.Name); err != nil {
			return nil, err
		}
		b = put16(b, TypeA)
		b = put16(b, ClassIN)
		b = put32(b, a.TTL)
		b = put16(b, 4)
		o := a.Addr.Octets()
		b = append(b, o[0], o[1], o[2], o[3])
	}
	return b, nil
}

// Parse decodes a DNS message. Non-A answers are skipped.
func Parse(b []byte) (*Message, error) {
	if len(b) < 12 {
		return nil, ErrTruncated
	}
	get16 := func(off int) uint16 { return uint16(b[off])<<8 | uint16(b[off+1]) }
	m := &Message{ID: get16(0), Flags: get16(2)}
	qd, an := int(get16(4)), int(get16(6))
	off := 12
	for i := 0; i < qd; i++ {
		name, next, err := decodeName(b, off)
		if err != nil {
			return nil, err
		}
		if next+4 > len(b) {
			return nil, ErrTruncated
		}
		m.Questions = append(m.Questions, Question{
			Name: name, Type: get16(next), Class: get16(next + 2),
		})
		off = next + 4
	}
	for i := 0; i < an; i++ {
		name, next, err := decodeName(b, off)
		if err != nil {
			return nil, err
		}
		if next+10 > len(b) {
			return nil, ErrTruncated
		}
		typ := get16(next)
		rdlen := int(get16(next + 8))
		rdata := next + 10
		if rdata+rdlen > len(b) {
			return nil, ErrTruncated
		}
		if typ == TypeA && rdlen == 4 {
			m.Answers = append(m.Answers, Answer{
				Name: name,
				TTL:  uint32(b[next+4])<<24 | uint32(b[next+5])<<16 | uint32(b[next+6])<<8 | uint32(b[next+7]),
				Addr: netsim.AddrFrom(b[rdata], b[rdata+1], b[rdata+2], b[rdata+3]),
			})
		}
		off = rdata + rdlen
	}
	return m, nil
}

// NewQuery builds an A query for name.
func NewQuery(id uint16, name string) ([]byte, error) {
	m := &Message{
		ID:        id,
		Flags:     FlagRD,
		Questions: []Question{{Name: name, Type: TypeA, Class: ClassIN}},
	}
	return m.Marshal()
}

// Resolver is the honeyfarm's safe DNS server: fixed zone entries plus
// a synthesis rule that maps every other name deterministically into
// Sinkhole — typically the monitored space itself, so follow-up
// connections are captured by fresh honeypot VMs.
type Resolver struct {
	// Zone holds explicit name -> address entries (names lower-case,
	// no trailing dot).
	Zone map[string]netsim.Addr
	// Sinkhole receives synthesized answers for names not in Zone.
	// A zero prefix (Bits 0 and Base 0) with Synthesize false returns
	// NXDOMAIN instead.
	Sinkhole   netsim.Prefix
	Synthesize bool
	TTL        uint32

	// Queries counts lookups served.
	Queries uint64
}

// NewResolver returns a resolver that sinkholes every unknown name into
// space.
func NewResolver(space netsim.Prefix) *Resolver {
	return &Resolver{
		Zone:       make(map[string]netsim.Addr),
		Sinkhole:   space,
		Synthesize: true,
		TTL:        60,
	}
}

// Lookup resolves one name.
func (r *Resolver) Lookup(name string) (netsim.Addr, bool) {
	key := strings.ToLower(strings.TrimSuffix(name, "."))
	if a, ok := r.Zone[key]; ok {
		return a, true
	}
	if !r.Synthesize {
		return 0, false
	}
	// Deterministic synthesis: same name, same sinkhole address.
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 0x100000001b3
	}
	return r.Sinkhole.Nth(h % r.Sinkhole.Size()), true
}

// Serve answers a raw query message, returning the raw response.
func (r *Resolver) Serve(query []byte) ([]byte, error) {
	q, err := Parse(query)
	if err != nil {
		return nil, err
	}
	if q.Response() || len(q.Questions) == 0 {
		return nil, fmt.Errorf("dns: not a query")
	}
	r.Queries++
	resp := &Message{
		ID:        q.ID,
		Flags:     FlagQR | FlagAA | FlagRA | (q.Flags & FlagRD),
		Questions: q.Questions,
	}
	for _, question := range q.Questions {
		if question.Type != TypeA || question.Class != ClassIN {
			continue
		}
		if addr, ok := r.Lookup(question.Name); ok {
			resp.Answers = append(resp.Answers, Answer{Name: question.Name, TTL: r.TTL, Addr: addr})
		}
	}
	if len(resp.Answers) == 0 {
		resp.Flags |= RCodeNXDomain
	}
	return resp.Marshal()
}

// ServePacket answers a UDP/53 packet, returning the response packet
// (source and destination swapped). Non-DNS payloads return nil.
func (r *Resolver) ServePacket(pkt *netsim.Packet) *netsim.Packet {
	if pkt.Proto != netsim.ProtoUDP {
		return nil
	}
	respPayload, err := r.Serve(pkt.Payload)
	if err != nil {
		return nil
	}
	return netsim.UDPDatagram(pkt.Dst, pkt.Src, pkt.DstPort, pkt.SrcPort, respPayload)
}
