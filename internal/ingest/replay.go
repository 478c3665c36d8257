package ingest

import (
	"encoding/binary"
	"io"
	"net"
	"time"

	"potemkin/internal/gre"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/telescope"
)

// WireSender encapsulates packets for one GRE-over-UDP tunnel to a
// listener: timestamp prefix (optional), GRE header with key and a
// monotonically increasing sequence number, then the raw inner IPv4
// bytes. The internal buffer is reused, so steady-state sends do not
// allocate.
type WireSender struct {
	conn *net.UDPConn
	// Key is the GRE tunnel key carried on every packet.
	Key uint32
	// Timestamped selects the 8-byte virtual-timestamp prefix framing.
	Timestamped bool

	seq uint32
	buf []byte
	pkt [frameBufSize]byte // marshal scratch for SendPacket

	// Sent and Bytes count datagrams and payload bytes written.
	Sent  uint64
	Bytes uint64
}

// DialWire connects a sender to a listener address.
func DialWire(to string, key uint32, timestamped bool) (*WireSender, error) {
	addr, err := net.ResolveUDPAddr("udp", to)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp", nil, addr)
	if err != nil {
		return nil, err
	}
	return &WireSender{conn: conn, Key: key, Timestamped: timestamped}, nil
}

// Close closes the socket.
func (s *WireSender) Close() error { return s.conn.Close() }

// SendRaw transmits one raw IPv4 packet stamped with virtual time ts.
func (s *WireSender) SendRaw(ts sim.Time, ip []byte) error {
	h := gre.Header{HasKey: true, HasSequence: true, Key: s.Key, Sequence: s.seq}
	s.seq++
	off := 0
	if s.Timestamped {
		off = tsPrefixLen
	}
	need := off + h.Len() + len(ip)
	if cap(s.buf) < need {
		s.buf = make([]byte, need)
	}
	s.buf = s.buf[:need]
	if s.Timestamped {
		binary.BigEndian.PutUint64(s.buf, uint64(ts))
	}
	gre.EncapInto(&h, s.buf[off:], ip)
	n, err := s.conn.Write(s.buf)
	if err != nil {
		return err
	}
	s.Sent++
	s.Bytes += uint64(n)
	return nil
}

// SendPacket marshals and transmits one packet at virtual time ts.
func (s *WireSender) SendPacket(ts sim.Time, pkt *netsim.Packet) error {
	n := pkt.MarshalInto(s.pkt[:])
	return s.SendRaw(ts, s.pkt[:n])
}

// ReplayOptions controls wire-replay pacing.
type ReplayOptions struct {
	// Speedup divides recorded inter-packet gaps: 1 (or 0) replays at
	// recorded timing, 10 replays ten times faster. Ignored when
	// MaxRate is set.
	Speedup float64
	// MaxRate disables pacing entirely: packets leave back to back.
	MaxRate bool
	// FlowControl, when set, is called after every send with the
	// running count; it may block to keep the sender from overrunning
	// a receiver (the loopback determinism test gates on the
	// listener's progress through it).
	FlowControl func(sent uint64)
}

// Replay paces a record source onto the wire. Each record is
// materialized as wire bytes and stamped with its trace time, so a
// timestamped listener reconstructs the recorded virtual timeline no
// matter how fast the wire replay runs. Returns the packet count and
// the last record's trace time.
func Replay(s *WireSender, src telescope.Source, opt ReplayOptions) (uint64, sim.Time, error) {
	speed := opt.Speedup
	if speed <= 0 {
		speed = 1
	}
	var (
		rec   telescope.Record
		n     uint64
		last  sim.Time
		first sim.Time
		begun bool
		start time.Time
	)
	for {
		err := src.Read(&rec)
		if err == io.EOF {
			return n, last, nil
		}
		if err != nil {
			return n, last, err
		}
		if !begun {
			begun = true
			first = rec.At
			start = time.Now()
		} else if !opt.MaxRate {
			// Sleep toward an absolute target so pacing error does
			// not accumulate across millions of packets.
			target := start.Add(time.Duration(float64(rec.At-first) / speed))
			if d := time.Until(target); d > 0 {
				time.Sleep(d)
			}
		}
		if err := s.SendPacket(rec.At, rec.Packet()); err != nil {
			return n, last, err
		}
		n++
		last = rec.At
		if opt.FlowControl != nil {
			opt.FlowControl(n)
		}
	}
}
