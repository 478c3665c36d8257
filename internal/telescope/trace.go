// Package telescope is the traffic substrate standing in for the paper's
// UCSD network-telescope feed: a generator that synthesizes background
// radiation with the statistical structure that matters to honeyfarm
// multiplexing (heavy-tailed per-address popularity, scanner sweep
// sessions, Poisson background), a compact binary trace format for
// repeatable experiments, and a replayer that injects a trace into the
// gateway over the sim kernel.
package telescope

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

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
// now (the gateway's capture tap uses this; payload bytes are not
// retained, only their length, like a snap-length-zero tcpdump).
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

// Trace file format: magic, version, then records. Version 1 records
// are fixed-size (24 bytes). Version 2 appends a u16 stored-payload
// length and that many content bytes to every record, so traces can
// carry exploit payloads losslessly; the reader accepts both.
const (
	traceMagic   = 0x504f544d // "POTM"
	traceVersion = 2
	recordSize   = 8 + 4 + 4 + 1 + 2 + 2 + 1 + 2 // 24 fixed bytes per record
)

// Format errors.
var (
	ErrBadMagic   = errors.New("telescope: not a trace file")
	ErrBadVersion = errors.New("telescope: unsupported trace version")
	ErrOutOfOrder = errors.New("telescope: records out of time order")
)

// Writer streams records to a trace file.
type Writer struct {
	w     *bufio.Writer
	n     uint64
	last  sim.Time
	buf   [recordSize]byte
	begun bool
}

// NewWriter writes a trace header to w and returns a record writer.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], traceMagic)
	binary.LittleEndian.PutUint32(hdr[4:], traceVersion)
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

// Write appends one record. Records must be in non-decreasing time order.
func (tw *Writer) Write(r *Record) error {
	if tw.begun && r.At < tw.last {
		return ErrOutOfOrder
	}
	if len(r.Payload) > 0xffff {
		return fmt.Errorf("telescope: payload %d exceeds record limit", len(r.Payload))
	}
	tw.begun = true
	tw.last = r.At
	payLen := r.PayLen
	if len(r.Payload) > 0 {
		payLen = uint16(len(r.Payload))
	}
	b := tw.buf[:]
	binary.LittleEndian.PutUint64(b[0:], uint64(r.At))
	binary.LittleEndian.PutUint32(b[8:], uint32(r.Src))
	binary.LittleEndian.PutUint32(b[12:], uint32(r.Dst))
	b[16] = byte(r.Proto)
	binary.LittleEndian.PutUint16(b[17:], r.SrcPort)
	binary.LittleEndian.PutUint16(b[19:], r.DstPort)
	b[21] = r.Flags
	binary.LittleEndian.PutUint16(b[22:], payLen)
	if _, err := tw.w.Write(b); err != nil {
		return err
	}
	var stored [2]byte
	binary.LittleEndian.PutUint16(stored[:], uint16(len(r.Payload)))
	if _, err := tw.w.Write(stored[:]); err != nil {
		return err
	}
	if len(r.Payload) > 0 {
		if _, err := tw.w.Write(r.Payload); err != nil {
			return err
		}
	}
	tw.n++
	return nil
}

// Count returns the number of records written.
func (tw *Writer) Count() uint64 { return tw.n }

// Flush flushes buffered records to the underlying writer.
func (tw *Writer) Flush() error { return tw.w.Flush() }

// Reader streams records from a trace file. Both format versions are
// accepted: v1 fixed-size records, v2 payload-carrying records.
type Reader struct {
	r       *bufio.Reader
	version uint32
	buf     [recordSize]byte
}

// NewReader validates the header of r and returns a record reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("telescope: reading header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != traceMagic {
		return nil, ErrBadMagic
	}
	v := binary.LittleEndian.Uint32(hdr[4:])
	if v < 1 || v > traceVersion {
		return nil, ErrBadVersion
	}
	return &Reader{r: br, version: v}, nil
}

// Read returns the next record, or io.EOF at end of trace.
func (tr *Reader) Read(r *Record) error {
	if _, err := io.ReadFull(tr.r, tr.buf[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return fmt.Errorf("telescope: truncated record: %w", err)
		}
		return err
	}
	b := tr.buf[:]
	r.At = sim.Time(binary.LittleEndian.Uint64(b[0:]))
	r.Src = netsim.Addr(binary.LittleEndian.Uint32(b[8:]))
	r.Dst = netsim.Addr(binary.LittleEndian.Uint32(b[12:]))
	r.Proto = netsim.Proto(b[16])
	r.SrcPort = binary.LittleEndian.Uint16(b[17:])
	r.DstPort = binary.LittleEndian.Uint16(b[19:])
	r.Flags = b[21]
	r.PayLen = binary.LittleEndian.Uint16(b[22:])
	r.Payload = nil
	if tr.version < 2 {
		return nil
	}
	var stored [2]byte
	if _, err := io.ReadFull(tr.r, stored[:]); err != nil {
		return fmt.Errorf("telescope: truncated record: %w", err)
	}
	if n := binary.LittleEndian.Uint16(stored[:]); n > 0 {
		// The writer records a stored payload's length as the wire
		// length, so a file where the two disagree is not one of ours,
		// and replay (which sends the stored bytes) could not honour it.
		if n != r.PayLen {
			return fmt.Errorf("telescope: record stores %d payload bytes but claims %d on the wire", n, r.PayLen)
		}
		r.Payload = make([]byte, n)
		if _, err := io.ReadFull(tr.r, r.Payload); err != nil {
			return fmt.Errorf("telescope: truncated payload: %w", err)
		}
	}
	return nil
}

// ReadAll slurps an entire trace.
func ReadAll(r io.Reader) ([]Record, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	var out []Record
	for {
		var rec Record
		if err := tr.Read(&rec); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return nil, err
		}
		out = append(out, rec)
	}
}

// WriteAll writes a whole trace.
func WriteAll(w io.Writer, recs []Record) error {
	tw, err := NewWriter(w)
	if err != nil {
		return err
	}
	for i := range recs {
		if err := tw.Write(&recs[i]); err != nil {
			return err
		}
	}
	return tw.Flush()
}
