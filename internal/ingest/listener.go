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
	// a frame error, and Bytes counts frameBufSize of it.
	frameBufSize = 4096

	// readBufSize holds the largest read the socket can return: one UDP
	// datagram, or a train of them the kernel coalesced (UDP_GRO).
	readBufSize = 64 << 10

	// DefaultPort is the listener's conventional UDP port (the
	// GRE-in-UDP destination port assigned by RFC 8086).
	DefaultPort = 4754
)

// Frame is one decapsulated datagram: its GRE envelope and parsed inner
// packet. Frames travel in a Batch and live as long as it does.
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

	// Pkt is the parsed inner packet. Payload aliases the batch's copy
	// of the datagram.
	Pkt netsim.Packet
}

// Batch is the unit that moves from the reader to the consumer: the
// frames one socket read brought for one shard, in arrival order, their
// datagram bytes back to back in one slice sized to the read. Batches
// are recycled: the consumer must Release every batch it receives, after
// which its frames and their packets are dead.
//
// A batch holds one frame until a consumer that walks whole batches —
// WireSource — starts reading the listener; from then on it holds
// everything a read brought for its shard (up to 64 frames under
// UDP_GRO). So a consumer that takes Frames(i) a receive at a time, and
// counts receives, counts frames.
type Batch struct {
	Frames []Frame
	data   []byte
	shard  int
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
	// decoded frames, counted frame by frame whatever the batches they
	// ride in: a frame the consumer has received but not yet released
	// still counts. When a queue is full the reader drops the frame and
	// counts it — explicit backpressure instead of unbounded buffering.
	// Default 4096.
	QueueLen int
	// Timestamped selects the 8-byte virtual-timestamp prefix framing
	// (see the framing comment above).
	Timestamped bool
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
	QueueDepth  int    // frames queued or held unreleased across shards
	QueueHWM    int    // high-water mark of QueueDepth
}

// Listener receives GRE-over-UDP telescope traffic and feeds
// decapsulated frames into per-shard bounded queues. One goroutine, the
// reader, takes each socket read to the queues, one Batch per shard the
// read touched; the consumer is the only other goroutine that touches a
// batch.
type Listener struct {
	cfg  Config
	pc   *net.UDPConn
	out  []chan *Batch  // reader -> consumer, one per shard
	free chan *Batch    // released batches, for the reader to refill
	wg   sync.WaitGroup // the reader

	// queued counts, per shard, the frames pushed and not yet released:
	// what the queue bound and QueueDepth are measured in.
	queued []atomic.Int64

	// trains is set by a consumer that walks whole batches; until then
	// the reader pushes every frame in a batch of its own.
	trains atomic.Bool

	// The reader alone touches these. lastSeq is the last GRE sequence
	// number seen per tunnel key (the reader sees every frame of every
	// key); cur is the batch each shard is filling from the current read,
	// which is readLen bytes long and pushes a batch per shard when
	// perRead (trains, as of the read) or per frame otherwise; f is the
	// datagram being decoded.
	lastSeq map[uint32]uint32
	cur     []*Batch
	readLen int
	perRead bool
	f       Frame

	// The scraped counters are the registry's own (Config.Metrics).
	received, frameErrors, dropped, seqGaps *metrics.Counter

	bytes    atomic.Uint64
	enqueued atomic.Uint64
	hwm      atomic.Int64

	t0   atomic.Int64 // wall nanos of first arrival (plain framing)
	once sync.Once
}

// readBuffer is the socket receive buffer size hint in bytes
// (SO_RCVBUF).
const readBuffer = 4 << 20

// Listen opens the UDP socket and starts the reader.
func Listen(cfg Config) (*Listener, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 4096
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
	uc.SetReadBuffer(readBuffer) // best effort; the OS may clamp
	setGRO(uc, true)             // best effort; without it every read is one datagram
	l := newListener(cfg)
	l.pc = uc
	l.wg.Add(1)
	go l.readLoop()
	return l, nil
}

// newListener builds everything of a listener but its socket; cfg has
// its defaults.
func newListener(cfg Config) *Listener {
	m := cfg.Metrics
	if m == nil {
		m = metrics.NewRegistry() // private: only this listener reads it
	}
	l := &Listener{
		cfg:         cfg,
		queued:      make([]atomic.Int64, cfg.Shards),
		lastSeq:     make(map[uint32]uint32),
		cur:         make([]*Batch, cfg.Shards),
		received:    m.Counter("ingest_received_total"),
		frameErrors: m.Counter("ingest_frame_errors_total"),
		dropped:     m.Counter("ingest_dropped_total"),
		seqGaps:     m.Counter("ingest_seq_gaps_total"),
	}
	l.out = make([]chan *Batch, cfg.Shards)
	for i := range l.out {
		// Every queued batch holds at least one of the 2 × QueueLen
		// frames the shard may hold, so a push never finds it full.
		l.out[i] = make(chan *Batch, 2*cfg.QueueLen)
	}
	// Room for every batch that can exist at once — those the queues
	// hold, and one per shard the reader is filling — so a release
	// never finds it full either.
	l.free = make(chan *Batch, cfg.Shards*(2*cfg.QueueLen+1))
	return l
}

// Addr returns the bound socket address (useful with ":0").
func (l *Listener) Addr() net.Addr { return l.pc.LocalAddr() }

// Shards returns the shard count.
func (l *Listener) Shards() int { return l.cfg.Shards }

// Frames returns shard i's batch queue. Close closes the channel;
// batches queued by then stay readable.
func (l *Listener) Frames(i int) <-chan *Batch { return l.out[i] }

// Release returns a batch to the reader and its frames to the queue
// bound. The batch, its frames and their packets must not be touched
// afterwards.
func (l *Listener) Release(b *Batch) {
	l.queued[b.shard].Add(-int64(len(b.Frames)))
	b.Frames, b.data = b.Frames[:0], b.data[:0]
	l.free <- b // never blocks: see newListener
}

// Close stops the reader and closes the batch channels. Batches already
// queued remain readable until consumed.
func (l *Listener) Close() error {
	err := l.pc.Close()
	l.wg.Wait() // the reader never blocks on a queue, so this returns
	return err
}

// QueueDepth returns the decoded frames currently queued, or received
// and not yet released, across all shards.
func (l *Listener) QueueDepth() int {
	depth := int64(0)
	for i := range l.queued {
		depth += l.queued[i].Load()
	}
	return int(depth)
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

// readLoop pulls trains off the socket and takes each through
// acceptRead. It is the only goroutine that blocks on the socket, and it
// blocks on nothing else: on queue overflow it drops immediately
// (counted) so the socket keeps draining.
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
		l.acceptRead(buf[:n], oob[:oobn], ts)
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

// acceptRead takes one socket read, received at ts, through the
// reader's path: each datagram is counted and accepted into its shard's
// batch, and then each batch the read filled changes hands once. The
// read buffer is free again when it returns: no frame aliases it.
func (l *Listener) acceptRead(data, oob []byte, ts sim.Time) {
	l.f.TS, l.readLen, l.perRead = ts, len(data), l.trains.Load()
	splitTrain(data, oob, l.accept)
	for s, b := range l.cur {
		if b != nil {
			l.push(s)
		}
	}
}

// accept takes one datagram of the current read: the received and byte
// counters, the decode where the datagram sits in the read buffer, and
// then either a counted drop against its shard's bound or a copy into
// the shard's batch. Shards are by inner destination address, which
// keeps per-destination order within one queue.
func (l *Listener) accept(seg []byte) {
	l.received.Inc()
	if len(seg) > frameBufSize {
		l.bytes.Add(frameBufSize)
		l.frameErrors.Inc()
		return
	}
	l.bytes.Add(uint64(len(seg)))
	// Capped at its own length, the datagram tells a payload's offset in
	// it by the payload's capacity.
	seg = seg[:len(seg):len(seg)]
	f := &l.f
	if !l.decode(f, seg, l.lastSeq) {
		l.frameErrors.Inc()
		return
	}
	s := int(uint32(f.Pkt.Dst) % uint32(l.cfg.Shards))
	b := l.cur[s]
	held := l.queued[s].Load()
	if b != nil {
		held += int64(len(b.Frames))
	}
	if held >= int64(2*l.cfg.QueueLen) {
		l.dropped.Inc()
		return
	}
	if b == nil {
		size := len(seg)
		if l.perRead {
			size = l.readLen
		}
		select {
		case b = <-l.free:
		default:
			b = new(Batch)
		}
		if cap(b.data) < size {
			b.data = make([]byte, 0, size)
		}
		b.shard = s
		l.cur[s] = b
	}
	at := len(b.data)
	b.data = append(b.data, seg...) // within the capacity: nothing moves
	if p := f.Pkt.Payload; p != nil {
		at += len(seg) - cap(p)
		f.Pkt.Payload = b.data[at : at+len(p) : at+len(p)]
	}
	b.Frames = append(b.Frames, *f)
	// Counted before the push, so that a frame the consumer holds is
	// always one Stats has as enqueued.
	l.enqueued.Add(1)
	if !l.perRead {
		l.push(s)
	}
}

// push hands shard s's current batch to its queue.
func (l *Listener) push(s int) {
	b := l.cur[s]
	l.cur[s] = nil
	l.queued[s].Add(int64(len(b.Frames)))
	l.out[s] <- b // never blocks: see newListener
	l.trackDepth()
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

// decode parses datagram p into f in place — the packet payload aliases
// p — so the steady-state decap path allocates nothing (see
// BenchmarkIngestDecap). It returns false on any framing, GRE, or
// inner-IPv4 error.
func (l *Listener) decode(f *Frame, p []byte, lastSeq map[uint32]uint32) bool {
	f.N = len(p)
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
