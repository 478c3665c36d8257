package ingest

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"potemkin/internal/gre"
	"potemkin/internal/metrics"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
)

// Wire framing. A telescope router tunnels raw IPv4 packets to the
// gateway inside GRE; here the GRE packet rides a UDP datagram
// (GRE-in-UDP, the shape of RFC 8086):
//
//	UDP payload = GRE header [+key][+seq] + inner IPv4 packet
//
// Our own senders (cmd/floodgen, the wire replayer) additionally prefix
// an 8-byte big-endian virtual timestamp in nanoseconds — the
// "timestamped" framing — so a replayed trace maps onto *exactly* the
// simulated instants it was recorded at, independent of wall-clock
// jitter on the wire. Plain framing maps arrival wall time onto
// simulated time instead (scaled by WireSource.Speedup).
const (
	tsPrefixLen = 8

	// frameBufSize bounds one datagram. Telescope packets are small
	// (probes, first exploit segments); a datagram longer than this is
	// clipped when it is copied into its Frame and then refused by the
	// IPv4 parser as inconsistent, landing in FrameErrors.
	frameBufSize = 4096

	// readBufSize holds the largest read the socket can return: one UDP
	// datagram, or a train of them the kernel coalesced (UDP_GRO).
	readBufSize = 64 << 10

	// DefaultPort is the listener's conventional UDP port (the
	// GRE-in-UDP destination port assigned by RFC 8086).
	DefaultPort = 4754
)

// Frame is one decapsulated datagram moving from the socket to the
// consumer (WireSource). Frames are pooled: the consumer must Release
// every frame it receives, after which Pkt (whose Payload aliases Buf)
// is dead.
//
// The header fields come before Buf: a telescope frame is ~60 bytes, so
// what the reader writes and the consumer reads — the header and the
// first bytes of Buf — then shares a page, where a header behind the
// 4 KiB buffer cost every frame a second page and TLB entry.
type Frame struct {
	N int // datagram length

	// TS is the frame's virtual timestamp: the wire timestamp under
	// timestamped framing, or the wall-clock offset since the first
	// arrival under plain framing.
	TS sim.Time

	// GRE envelope fields.
	Key    uint32
	Seq    uint32
	HasSeq bool

	// Pkt is the parsed inner packet. Payload aliases Buf.
	Pkt netsim.Packet

	Buf [frameBufSize]byte
}

// Config parameterizes a Listener. The zero value of every field except
// Addr has a working default.
type Config struct {
	// Addr is the UDP listen address, e.g. "127.0.0.1:4754".
	Addr string
	// Shards is the number of bounded queues the reader partitions the
	// decoded feed across (by inner destination address, so
	// per-destination packet order survives). Default 1. Deterministic
	// replay requires 1: with several shards, cross-shard arrival
	// interleaving is scheduling-dependent.
	Shards int
	// QueueLen sizes each shard's queue, which holds 2 × QueueLen
	// decoded frames. When a queue is full the reader drops the frame
	// and counts it — explicit backpressure instead of unbounded
	// buffering. Default 4096.
	QueueLen int
	// Timestamped selects the 8-byte virtual-timestamp prefix framing
	// (see the framing comment above).
	Timestamped bool
	// ReadBuffer is the socket receive buffer size hint in bytes
	// (SO_RCVBUF). Default 4 MiB; the OS may clamp it.
	ReadBuffer int
	// Metrics, when set, is where the listener's received, frame-error,
	// dropped and sequence-gap counters live (ingest_*_total): a scrape
	// reads the very atomics Stats does, so give each listener its own
	// registry. Nil keeps the counters private.
	Metrics *metrics.Registry
}

// Stats is an atomic snapshot of listener activity.
type Stats struct {
	Received    uint64 // datagrams read off the socket
	Bytes       uint64 // datagram bytes read
	FrameErrors uint64 // undecodable frames (short, bad GRE, bad inner IPv4)
	Dropped     uint64 // frames dropped against a full shard queue
	Enqueued    uint64 // decoded frames pushed onto a shard queue
	SeqGaps     uint64 // missing GRE sequence numbers (sender- or kernel-side loss)
	QueueDepth  int    // current frames queued across shards
	QueueHWM    int    // high-water mark of QueueDepth
}

// Listener receives GRE-over-UDP telescope traffic and feeds
// decapsulated frames into per-shard bounded queues. One goroutine, the
// reader, takes a frame from the socket to its queue; the consumer is
// the only other goroutine that touches it.
type Listener struct {
	cfg  Config
	pc   *net.UDPConn
	out  []chan *Frame // reader -> consumer, one per shard
	pool sync.Pool
	wg   sync.WaitGroup // the reader

	// lastSeq is the last GRE sequence number seen per tunnel key. The
	// reader alone touches it, and sees every frame of every key.
	lastSeq map[uint32]uint32

	// The scraped counters are the registry's own (Config.Metrics).
	received, frameErrors, dropped, seqGaps *metrics.Counter

	bytes    atomic.Uint64
	enqueued atomic.Uint64
	hwm      atomic.Int64

	t0   atomic.Int64 // wall nanos of first arrival (plain framing)
	once sync.Once
}

// Listen opens the UDP socket and starts the reader.
func Listen(cfg Config) (*Listener, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 4096
	}
	if cfg.ReadBuffer <= 0 {
		cfg.ReadBuffer = 4 << 20
	}
	pc, err := net.ListenPacket("udp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	uc, ok := pc.(*net.UDPConn)
	if !ok {
		pc.Close()
		return nil, fmt.Errorf("ingest: %T is not a UDP socket", pc)
	}
	uc.SetReadBuffer(cfg.ReadBuffer) // best effort; the OS may clamp
	setGRO(uc, true)                 // best effort; without it every read is one datagram
	m := cfg.Metrics
	if m == nil {
		m = metrics.NewRegistry() // private: only this listener reads it
	}
	l := &Listener{
		cfg: cfg, pc: uc,
		lastSeq:     make(map[uint32]uint32),
		received:    m.Counter("ingest_received_total"),
		frameErrors: m.Counter("ingest_frame_errors_total"),
		dropped:     m.Counter("ingest_dropped_total"),
		seqGaps:     m.Counter("ingest_seq_gaps_total"),
	}
	l.pool.New = func() any { return new(Frame) }
	l.out = make([]chan *Frame, cfg.Shards)
	for i := range l.out {
		// 2 × QueueLen: what the raw and decapsulated queues this one
		// replaced held between them, so a feed that fitted still fits.
		l.out[i] = make(chan *Frame, 2*cfg.QueueLen)
	}
	l.wg.Add(1)
	go l.readLoop()
	return l, nil
}

// Addr returns the bound socket address (useful with ":0").
func (l *Listener) Addr() net.Addr { return l.pc.LocalAddr() }

// Shards returns the shard count.
func (l *Listener) Shards() int { return l.cfg.Shards }

// Frames returns shard i's decapsulated-frame queue. Close closes the
// channel; frames queued by then stay readable.
func (l *Listener) Frames(i int) <-chan *Frame { return l.out[i] }

// Release returns a frame to the pool. The frame and its packet must
// not be touched afterwards.
func (l *Listener) Release(f *Frame) {
	f.Pkt = netsim.Packet{}
	l.pool.Put(f)
}

// Close stops the reader and closes the frame channels. Frames already
// queued remain readable until consumed.
func (l *Listener) Close() error {
	err := l.pc.Close()
	l.wg.Wait() // the reader never blocks on a queue, so this returns
	return err
}

// QueueDepth returns the decoded frames currently queued across all
// shards.
func (l *Listener) QueueDepth() int {
	depth := 0
	for i := range l.out {
		depth += len(l.out[i])
	}
	return depth
}

// Stats returns a snapshot of the counters.
func (l *Listener) Stats() Stats {
	depth := l.QueueDepth()
	return Stats{
		Received:    l.received.Load(),
		Bytes:       l.bytes.Load(),
		FrameErrors: l.frameErrors.Load(),
		Dropped:     l.dropped.Load(),
		Enqueued:    l.enqueued.Load(),
		SeqGaps:     l.seqGaps.Load(),
		QueueDepth:  depth,
		QueueHWM:    int(l.hwm.Load()),
	}
}

// readLoop pulls trains off the socket, cuts them into datagrams, and
// takes each through accept. It is the only goroutine that blocks on the
// socket, and it blocks on nothing else: on queue overflow it drops
// immediately (counted) so the socket keeps draining.
func (l *Listener) readLoop() {
	defer l.wg.Done()
	defer func() {
		for i := range l.out {
			close(l.out[i])
		}
	}()
	buf := make([]byte, readBufSize)
	oob := make([]byte, 64) // room for the one control message UDP_GRO adds
	var ts sim.Time
	accept := func(seg []byte) { l.accept(seg, ts) }
	for {
		n, oobn, _, _, err := l.pc.ReadMsgUDPAddrPort(buf, oob)
		if err != nil {
			return // socket closed (or fatally broken): shut down
		}
		if !l.cfg.Timestamped {
			// Every datagram of one read arrived by now; wire
			// timestamps, when framed, carry virtual time instead.
			now := time.Now().UnixNano()
			l.once.Do(func() { l.t0.Store(now) })
			ts = sim.Time(now - l.t0.Load())
		}
		splitTrain(buf[:n], oob[:oobn], accept)
	}
}

// splitTrain cuts one socket read into the datagrams it carries and
// hands them to each in order. oob is the read's control data: when the
// kernel coalesced a train it reports the segment size there, and every
// segment but possibly the last has that length. Without it the read is
// one datagram, however short.
func splitTrain(data, oob []byte, each func(seg []byte)) {
	size := groSegmentSize(oob)
	if size <= 0 {
		size = len(data)
	}
	for len(data) > size {
		each(data[:size])
		data = data[size:]
	}
	each(data)
}

// accept takes one datagram through the per-frame path, start to
// finish on the reader's goroutine: a pooled Frame, the received and
// byte counters, the decode, and its shard's bounded queue or a counted
// drop. Shards are by inner destination address, which keeps
// per-destination order within one queue.
func (l *Listener) accept(seg []byte, ts sim.Time) {
	f := l.pool.Get().(*Frame)
	f.N = copy(f.Buf[:], seg)
	f.TS = ts
	l.received.Inc()
	l.bytes.Add(uint64(f.N))
	if !l.decode(f, l.lastSeq) {
		l.frameErrors.Inc()
		l.Release(f)
		return
	}
	// Counted before the send, and uncounted on a drop, so that a frame
	// the consumer holds is always one Stats has as enqueued.
	l.enqueued.Add(1)
	select {
	case l.out[uint32(f.Pkt.Dst)%uint32(l.cfg.Shards)] <- f:
		l.trackDepth()
	default:
		l.enqueued.Add(^uint64(0))
		l.dropped.Inc()
		l.Release(f)
	}
}

// trackDepth maintains the queue high-water mark.
func (l *Listener) trackDepth() {
	depth := int64(l.QueueDepth())
	for {
		old := l.hwm.Load()
		if depth <= old || l.hwm.CompareAndSwap(old, depth) {
			return
		}
	}
}

// decode parses a raw frame in place — the packet payload aliases the
// frame buffer — so the steady-state decap path allocates nothing (see
// BenchmarkIngestDecap). It returns false on any framing, GRE, or
// inner-IPv4 error.
func (l *Listener) decode(f *Frame, lastSeq map[uint32]uint32) bool {
	p := f.Buf[:f.N]
	if l.cfg.Timestamped {
		if len(p) < tsPrefixLen {
			return false
		}
		f.TS = sim.Time(binary.BigEndian.Uint64(p))
		if f.TS < 0 {
			return false
		}
		p = p[tsPrefixLen:]
	}
	h, inner, err := gre.Decap(p)
	if err != nil {
		return false
	}
	f.Key, f.Seq, f.HasSeq = h.Key, h.Sequence, h.HasSequence
	if h.HasSequence {
		if last, ok := lastSeq[h.Key]; ok && f.Seq > last+1 {
			l.seqGaps.Add(uint64(f.Seq - last - 1))
		}
		lastSeq[h.Key] = f.Seq
	}
	return f.Pkt.Unmarshal(inner) == nil
}
