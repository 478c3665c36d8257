// Package ingest bridges real packets into the simulated honeyfarm: a
// GRE-over-UDP listener with bounded per-shard queues and drop
// accounting, a classic-pcap savefile codec (no cgo, no libpcap), a
// replayer that paces traces onto the wire, and a WireSource that maps
// wire arrivals onto deterministic simulated time.
//
// The paper's gateway is a packet-path element fed by telescope routers
// over GRE tunnels; this package is the reproduction's equivalent edge.
// Everything above the UDP socket is plain stdlib, so the decap fast
// path can be benchmarked honestly (zero allocations per packet in
// steady state) and fuzzed like the other wire codecs.
package ingest

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/telescope"
)

// Classic pcap savefile constants. The writer emits the nanosecond
// variant (magic 0xa1b23c4d) in little-endian byte order so telescope
// trace times — simulated nanoseconds — survive a round trip exactly;
// the reader accepts both precisions in both byte orders.
const (
	pcapMagicUS = 0xa1b2c3d4 // microsecond timestamps
	pcapMagicNS = 0xa1b23c4d // nanosecond timestamps
	pcapVMajor  = 2
	pcapVMinor  = 4

	pcapFileHeaderLen   = 24
	pcapRecordHeaderLen = 16

	// LinkTypeRaw (LINKTYPE_RAW, 101) frames are bare IPv4/IPv6
	// packets — exactly what the netsim wire codec speaks. It is what
	// the writer emits.
	LinkTypeRaw = 101
	// LinkTypeEthernet (1) and LinkTypeIPv4 (228) and LinkTypeNull (0)
	// are accepted on read; see innerIPv4 for how the link header is
	// stripped.
	LinkTypeEthernet = 1
	LinkTypeIPv4     = 228
	LinkTypeNull     = 0

	// maxPcapPacket bounds a single record's captured length. Real
	// telescope packets are <= 64 KiB; anything above this in a file is
	// a corrupt or adversarial length field, refused rather than
	// allocated.
	maxPcapPacket = 1 << 16
)

// Pcap codec errors.
var (
	ErrPcapMagic    = errors.New("ingest: not a pcap file")
	ErrPcapVersion  = errors.New("ingest: unsupported pcap version")
	ErrPcapLink     = errors.New("ingest: unsupported pcap link type")
	ErrPcapOversize = errors.New("ingest: pcap record exceeds sane length")
	ErrPcapTime     = errors.New("ingest: pcap record's sub-second field is a second or more")
)

// PcapWriter streams packets into a classic pcap savefile
// (little-endian, nanosecond precision, LINKTYPE_RAW).
type PcapWriter struct {
	w   *bufio.Writer
	n   uint64
	hdr [pcapRecordHeaderLen]byte
}

// NewPcapWriter writes the file header and returns a packet writer.
func NewPcapWriter(w io.Writer) (*PcapWriter, error) {
	bw := bufio.NewWriter(w)
	var hdr [pcapFileHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], pcapMagicNS)
	binary.LittleEndian.PutUint16(hdr[4:], pcapVMajor)
	binary.LittleEndian.PutUint16(hdr[6:], pcapVMinor)
	// thiszone (8:12) and sigfigs (12:16) are zero by convention.
	binary.LittleEndian.PutUint32(hdr[16:], maxPcapPacket) // snaplen
	binary.LittleEndian.PutUint32(hdr[20:], LinkTypeRaw)
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &PcapWriter{w: bw}, nil
}

// WritePacket appends one raw IPv4 packet captured at virtual time ts.
func (pw *PcapWriter) WritePacket(ts sim.Time, data []byte) error {
	if len(data) > maxPcapPacket {
		return ErrPcapOversize
	}
	b := pw.hdr[:]
	binary.LittleEndian.PutUint32(b[0:], uint32(uint64(ts)/1e9))
	binary.LittleEndian.PutUint32(b[4:], uint32(uint64(ts)%1e9))
	binary.LittleEndian.PutUint32(b[8:], uint32(len(data)))
	binary.LittleEndian.PutUint32(b[12:], uint32(len(data)))
	if _, err := pw.w.Write(b); err != nil {
		return err
	}
	_, err := pw.w.Write(data)
	pw.n++
	return err
}

// Count returns the number of packets written.
func (pw *PcapWriter) Count() uint64 { return pw.n }

// Flush flushes buffered packets to the underlying writer.
func (pw *PcapWriter) Flush() error { return pw.w.Flush() }

// PcapReader streams packets out of a classic pcap savefile. It accepts
// microsecond and nanosecond timestamp precision in either byte order,
// and the link types listed above.
type PcapReader struct {
	r     *bufio.Reader
	order binary.ByteOrder
	nanos bool
	link  uint32
	buf   []byte
	hdr   [pcapRecordHeaderLen]byte
}

// NewPcapReader validates the file header of r and returns a reader.
func NewPcapReader(r io.Reader) (*PcapReader, error) {
	br := bufio.NewReader(r)
	var hdr [pcapFileHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("ingest: reading pcap header: %w", err)
	}
	pr := &PcapReader{r: br}
	switch binary.LittleEndian.Uint32(hdr[0:]) {
	case pcapMagicUS:
		pr.order = binary.LittleEndian
	case pcapMagicNS:
		pr.order, pr.nanos = binary.LittleEndian, true
	default:
		switch binary.BigEndian.Uint32(hdr[0:]) {
		case pcapMagicUS:
			pr.order = binary.BigEndian
		case pcapMagicNS:
			pr.order, pr.nanos = binary.BigEndian, true
		default:
			return nil, ErrPcapMagic
		}
	}
	if pr.order.Uint16(hdr[4:]) != pcapVMajor {
		return nil, ErrPcapVersion
	}
	pr.link = pr.order.Uint32(hdr[20:])
	switch pr.link {
	case LinkTypeRaw, LinkTypeEthernet, LinkTypeIPv4, LinkTypeNull:
	default:
		return nil, fmt.Errorf("%w %d", ErrPcapLink, pr.link)
	}
	return pr, nil
}

// Next returns the next record's capture timestamp and its bytes, or
// io.EOF at end of file. The returned slice is reused by the following
// Next call. Captured bytes are returned as stored — possibly truncated
// relative to the original packet — with the link-layer header still
// attached; innerIPv4 strips it.
func (pr *PcapReader) Next() (sim.Time, []byte, error) {
	if _, err := io.ReadFull(pr.r, pr.hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return 0, nil, fmt.Errorf("ingest: truncated pcap record header: %w", err)
		}
		return 0, nil, err
	}
	sec := uint64(pr.order.Uint32(pr.hdr[0:]))
	sub := uint64(pr.order.Uint32(pr.hdr[4:]))
	incl := pr.order.Uint32(pr.hdr[8:])
	if incl > maxPcapPacket {
		return 0, nil, ErrPcapOversize
	}
	if cap(pr.buf) < int(incl) {
		pr.buf = make([]byte, incl)
	}
	pr.buf = pr.buf[:incl]
	if _, err := io.ReadFull(pr.r, pr.buf); err != nil {
		return 0, nil, fmt.Errorf("ingest: truncated pcap record: %w", err)
	}
	// A fraction of a second or more is no timestamp a capture tool
	// writes, and its carry into the seconds could overflow them.
	if !pr.nanos {
		sub *= 1e3
	}
	if sub >= 1e9 {
		return 0, nil, ErrPcapTime
	}
	ts := sec*1e9 + sub
	return sim.Time(ts), pr.buf, nil
}

// innerIPv4 strips the link-layer header for the reader's link type and
// returns the raw IPv4 packet bytes, or ok=false when the frame does
// not carry plain IPv4 (e.g. an Ethernet frame with a VLAN tag or ARP).
func (pr *PcapReader) innerIPv4(frame []byte) ([]byte, bool) {
	switch pr.link {
	case LinkTypeRaw, LinkTypeIPv4:
		if len(frame) > 0 && frame[0]>>4 == 4 {
			return frame, true
		}
	case LinkTypeEthernet:
		const ethLen = 14
		if len(frame) >= ethLen && binary.BigEndian.Uint16(frame[12:]) == 0x0800 {
			return frame[ethLen:], true
		}
	case LinkTypeNull:
		// 4-byte AF family in file byte order; AF_INET is 2 everywhere.
		if len(frame) >= 4 && pr.order.Uint32(frame) == 2 {
			return frame[4:], true
		}
	}
	return nil, false
}

// PcapSource adapts a pcap file to a telescope record Source: each
// packet is parsed by the netsim wire codec and captured as a Record.
// Payload content is retained when it carries any non-zero byte (so
// exploit signatures survive), and collapses to a bare length
// otherwise — the telescope trace model. Frames that
// are not parseable IPv4 (foreign link protocols, truncated captures,
// packets with IP/TCP options the codec rejects) are skipped and
// counted in Skipped, so real telescope captures with stray noise still
// replay.
type PcapSource struct {
	pr *PcapReader
	// Skipped counts frames that could not be converted.
	Skipped uint64
	pkt     netsim.Packet
}

// NewPcapSource validates the pcap header of r.
func NewPcapSource(r io.Reader) (*PcapSource, error) {
	pr, err := NewPcapReader(r)
	if err != nil {
		return nil, err
	}
	return &PcapSource{pr: pr}, nil
}

// Read implements telescope.Source.
func (ps *PcapSource) Read(rec *telescope.Record) error {
	for {
		ts, frame, err := ps.pr.Next()
		if err != nil {
			return err
		}
		inner, ok := ps.pr.innerIPv4(frame)
		if !ok {
			ps.Skipped++
			continue
		}
		if err := ps.pkt.Unmarshal(inner); err != nil {
			ps.Skipped++
			continue
		}
		*rec = telescope.RecordOf(ts, &ps.pkt)
		// Non-zero payload bytes are content (exploit signatures) and
		// must survive the round trip — a live wire capture replays the
		// same infections it served. All-zero payloads collapse to
		// PayLen-only records, the historical trace model, and
		// re-materialize as the same zero-filled bytes either way.
		if hasContent(ps.pkt.Payload) {
			rec.Payload = append([]byte(nil), ps.pkt.Payload...)
		}
		return nil
	}
}

// WritePcap converts a whole record Source into a pcap savefile,
// materializing each record as wire bytes. It returns the packet count.
// This is how generated traces become files tcpdump and Wireshark open
// directly.
func WritePcap(w io.Writer, src telescope.Source) (uint64, error) {
	pw, err := NewPcapWriter(w)
	if err != nil {
		return 0, err
	}
	var rec telescope.Record
	var buf []byte
	for {
		err := src.Read(&rec)
		if err == io.EOF {
			return pw.Count(), pw.Flush()
		}
		if err != nil {
			return pw.Count(), err
		}
		pkt := rec.Packet()
		if n := pkt.WireLen(); cap(buf) < n {
			buf = make([]byte, n)
		} else {
			buf = buf[:n]
		}
		pkt.MarshalInto(buf)
		if err := pw.WritePacket(rec.At, buf); err != nil {
			return pw.Count(), err
		}
	}
}
