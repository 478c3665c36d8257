package ingest

import (
	"encoding/binary"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"potemkin/internal/gre"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/telescope"
)

// A train is the unit that crosses the socket: up to trainSegs
// equal-length frames laid end to end in one buffer, handed to the
// kernel in one send that UDP_SEGMENT cuts back into the datagrams a
// frame-at-a-time sender would have written.
const (
	trainSegs  = 64       // the smallest UDP_MAX_SEGMENTS of any kernel that segments
	trainBytes = 60 << 10 // stay clear of the 65,507-byte UDP payload limit

	// trainDelay bounds how long a frame waits in a train its owner has
	// stopped adding to (and not flushed) before the backstop timer
	// sends it.
	trainDelay = 100 * time.Microsecond
)

// WireSender encapsulates packets for one GRE-over-UDP tunnel to a
// listener: timestamp prefix (optional), GRE header with key and a
// monotonically increasing sequence number, then the raw inner IPv4
// bytes.
//
// Frames leave in trains. SendRaw and SendPacket append the frame to the
// current train; the train is written — one syscall, the same datagrams
// in the same order — when it holds trainSegs frames or trainBytes, when
// the next frame has a different length (segments must be equal; that
// frame starts the next train), on Flush or Close, and otherwise
// trainDelay after its first frame, by a timer. A caller about to sleep
// or to wait on the receiver should Flush first; one that does not still
// sees its frames arrive. Under plain framing the listener maps arrival
// time to virtual time, so a sender with Timestamped == false writes
// every frame as it comes.
//
// A WireSender has one owner: only the timer runs concurrently with it,
// and the timer touches neither Sent nor Bytes. A failed write is sticky:
// whichever side hit it, every later call returns it. The train buffer is
// reused, so steady-state sends do not allocate.
type WireSender struct {
	conn *net.UDPConn
	// Key is the GRE tunnel key carried on every packet.
	Key uint32
	// Timestamped selects the 8-byte virtual-timestamp prefix framing.
	Timestamped bool

	seq uint32
	pkt [frameBufSize]byte // marshal scratch for SendPacket

	// Sent and Bytes count the frames and datagram bytes accepted for
	// the wire, as they enter a train.
	Sent  uint64
	Bytes uint64

	mu        sync.Mutex // orders the owner against the backstop timer
	train     []byte     // segs frames of segLen bytes each
	segLen    int
	segs      int
	timer     *time.Timer // the backstop; pending while armed
	armed     bool
	noSegment bool  // the kernel refused to segment: stop asking
	err       error // first failed write
	oob       [segmentControlLen]byte
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

// Close sends what the current train holds and closes the socket.
func (s *WireSender) Close() error {
	err := s.Flush()
	if s.timer != nil {
		s.timer.Stop()
	}
	if cerr := s.conn.Close(); err == nil {
		err = cerr
	}
	return err
}

// Flush sends what the current train holds.
func (s *WireSender) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flush()
}

// SendRaw transmits one raw IPv4 packet stamped with virtual time ts.
func (s *WireSender) SendRaw(ts sim.Time, ip []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if need := s.frameLen(len(ip)); s.segs > 0 && (need != s.segLen || len(s.train)+need > trainBytes) {
		if err := s.flush(); err != nil {
			return err
		}
	}
	s.appendFrame(ts, ip)
	if !s.Timestamped || s.segs == trainSegs {
		return s.flush()
	}
	if !s.armed {
		s.armed = true
		if s.timer == nil {
			s.timer = time.AfterFunc(trainDelay, s.backstop)
		} else {
			s.timer.Reset(trainDelay)
		}
	}
	return nil
}

// frameLen returns the length of the frame that carries n inner bytes.
func (s *WireSender) frameLen(n int) int {
	h := gre.Header{HasKey: true, HasSequence: true}
	if s.Timestamped {
		n += tsPrefixLen
	}
	return h.Len() + n
}

// appendFrame encapsulates one packet at the end of the train.
func (s *WireSender) appendFrame(ts sim.Time, ip []byte) {
	h := gre.Header{HasKey: true, HasSequence: true, Key: s.Key, Sequence: s.seq}
	s.seq++
	at, n := len(s.train), s.frameLen(len(ip))
	s.train = slices.Grow(s.train, n)[:at+n]
	frame := s.train[at:]
	if s.Timestamped {
		binary.BigEndian.PutUint64(frame, uint64(ts))
		frame = frame[tsPrefixLen:]
	}
	gre.EncapInto(&h, frame, ip)
	s.segLen = n
	s.segs++
	s.Sent++
	s.Bytes += uint64(n)
}

// backstop is the timer's flush: it sends a train whose owner has gone
// quiet. A pending timer is left alone when the owner flushes, so this
// may find the next train partly built and send it early, or find
// nothing; either way no frame waits longer than trainDelay.
func (s *WireSender) backstop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.armed = false
	s.flush() // a failure is kept in s.err for the owner's next call
}

// flush writes the current train: in one segmented send when the kernel
// will take it, one datagram per segment otherwise. It is the only place
// that writes to the socket. The caller holds s.mu.
func (s *WireSender) flush() error {
	if s.err != nil || s.segs == 0 {
		return s.err
	}
	train, segs := s.train, s.segs
	s.train, s.segs = s.train[:0], 0
	if canSegment && segs > 1 && !s.noSegment {
		_, _, err := s.conn.WriteMsgUDP(train, segmentControl(&s.oob, s.segLen), nil)
		if err == nil {
			return nil
		}
		if !segmentRefused(err) {
			s.err = err
			return err
		}
		s.noSegment = true // nothing was queued: send the same train the other way
	}
	for ; len(train) > 0; train = train[s.segLen:] {
		if _, err := s.conn.Write(train[:s.segLen]); err != nil {
			s.err = err
			return err
		}
	}
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
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			if ferr := s.Flush(); err == nil {
				err = ferr
			}
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
				if err := s.Flush(); err != nil {
					return n, last, err
				}
				time.Sleep(d)
			}
		}
		if err := s.SendPacket(rec.At, rec.Packet()); err != nil {
			return n, last, err
		}
		n++
		last = rec.At
	}
}
